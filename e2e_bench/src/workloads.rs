//! The three workloads and the run structure they share: set-up repeated
//! and timed, then measured passes (each a fresh controller), then the
//! correctness checks and the traced-run ledger.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ow_bench::cr_workload;
use ow_common::afr::FlowRecord;
use ow_common::flowkey::KeyKind;
use ow_netsim::{
    global_subwindow, ClassProfile, FaultConfig, FaultStats, LossyChannel, PacketClass,
};
use ow_sketch::CountMin;
use ow_switch::app::FrequencyApp;
use ow_switch::signal::WindowSignal;
use ow_switch::{Switch, SwitchConfig, SwitchEvent};
use ow_trace::{Trace, TraceBuilder, TraceConfig};
use ow_verify::verified_switch;

use crate::ledger::{ns_per_call, ns_per_item, Layer, Ledger, LEDGER_TOLERANCE};
use crate::pass::{Pass, PassEnd, PassSpec};
use crate::report::{median, quantile, ratio, Outcome};
use crate::serial::{self, SerialStages, SerialWindow};
use crate::sys::{self, CpuWatch, Heart};

/// The seed the repository's BENCH files use; at it the AFR workloads'
/// fold digest is pinned.
pub const DEFAULT_SEED: u64 = 0xCA1DA;
/// `bench_snapshot`'s paper-scale fold digest at [`DEFAULT_SEED`].
const PINNED_DIGEST: u64 = 0xee8c_edde_f834_4b86;

/// `bench_snapshot`'s paper-scale AFR workload.
const AFR_SUBWINDOWS: u32 = 24;
const AFR_RECORDS: u32 = 40_000;
const AFR_POPULATION: u32 = 16_384;
/// Threshold of the window query on the AFR workloads (a merged key
/// averages ~5 000 over a 4-sub-window window; a few hundred exceed this).
const AFR_THRESHOLD: f64 = 9_000.0;

/// `packets`: per-switch trace shape.
const TRACE_PACKETS: usize = 2_000_000;
const TRACE_FLOWS: usize = 20_000;
const TRACE_SPAN: Duration = Duration::from_secs(2);
const SUBWINDOW: Duration = Duration::from_millis(10);
const SKETCH_WIDTH: usize = 65_536;
const SWITCHES: usize = 2;
/// Threshold of the window query on `packets` (packets per src IP over
/// a window; the Zipf head crosses it).
const PACKET_THRESHOLD: f64 = 1_000.0;
/// Poll for closes every this many packets while windows are pending,
/// so the close clock does not wait for the next window's emission.
const POLL_EVERY_PACKETS: u64 = 128;

const SETUP_REPS_AFR: usize = 15;
const SETUP_REPS_PACKETS: usize = 5;
/// Minimum wall time of the traced run's serial replays.
const SERIAL_MIN: Duration = Duration::from_millis(800);
const CHANNEL_SALT: u64 = 0x6368_616e_6e65_6c21;

/// Run-wide settings.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Watchdog heartbeat.
    pub heart: Heart,
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Saturating,
    Paced,
}

/// What every pass adds to the run.
#[derive(Default)]
struct Acc {
    out: Outcome,
    expect: Option<u64>,
    passes: u64,
    /// Untraced saturating passes: records/s, packets/s.
    rates: Vec<f64>,
    packet_rates: Vec<f64>,
    traced_rates: Vec<f64>,
    cpu_ns: u64,
    cpu_records: u64,
    close_ms: Vec<f64>,
    credited: u64,
    late_max: Duration,
    // Traced passes.
    traced_passes: u64,
    traced_windows: u64,
    traced_records: u64,
    traced_wall_ns: u64,
    sat_traced_wall_ns: u64,
    ctl_cpu_ns: u64,
    feeder_cpu_ns: u64,
    busiest_ns: u64,
    busiest_life_ns: u64,
    drain_ns: u64,
    retransmit_calls: u64,
    replayed: u64,
    os_reads: u64,
    callback_ns: u64,
    channel: FaultStats,
    /// A breach found outside any one pass (a reference digest, the
    /// lossless replay, the serial replay, the ledger): every window of
    /// the run counts as failed.
    run_breach: bool,
}

impl Acc {
    /// Spawn a pass, feed it with `feed` (timed), drain it, and account
    /// for it. Returns what `feed` returned and the drained pass.
    fn measure<R>(
        &mut self,
        run: &Run,
        ledger: &mut Ledger,
        spec: &PassSpec,
        traced: bool,
        phase: Phase,
        feed: impl FnOnce(&mut Pass, &mut Ledger) -> R,
    ) -> (R, PassEnd, Duration) {
        let mut pass = Pass::spawn(spec, run.heart.clone());
        ledger.set_on(traced);
        let cpu0 = sys::process_cpu_ns();
        let feeder0 = if traced { sys::own_thread_cpu_ns() } else { 0 };
        let t0 = Instant::now();
        let fed = feed(&mut pass, ledger);
        let mut end = pass.drain(ledger);
        let wall = t0.elapsed();
        let cpu = sys::process_cpu_ns().saturating_sub(cpu0);
        let feeder = if traced {
            sys::own_thread_cpu_ns() - feeder0
        } else {
            0
        };
        ledger.set_on(false);

        let digest = end.digest();
        let want = *self.expect.get_or_insert(digest);
        if digest != want {
            end.errors
                .push(format!("fold digest {digest:016x}, want {want:016x}"));
        }
        let pass_no = self.passes;
        self.passes += 1;
        self.out.attempted += end.windows;
        self.out.failed += end.failed_windows();
        if end.observer.pending() > 0 {
            end.errors.push(format!(
                "{} window(s) never observed closing",
                end.observer.pending()
            ));
        }
        self.out
            .errors
            .extend(end.errors.iter().map(|e| format!("pass {pass_no}: {e}")));
        self.close_ms.extend_from_slice(&end.observer.samples_ms);
        self.credited += end.observer.credited_after_evict;

        // Throughput runs to `join`: the oracle's scoring lane, drained
        // after it, counts in CPU per record but not in the merge rate.
        let rate = end.records as f64 / (end.joined_at - t0).as_secs_f64();
        if phase == Phase::Saturating {
            if traced {
                self.traced_rates.push(rate);
            } else {
                self.rates.push(rate);
                self.cpu_ns += cpu;
                self.cpu_records += end.records;
            }
        }
        if traced {
            self.traced_passes += 1;
            self.traced_windows += end.windows;
            self.traced_records += end.records;
            self.traced_wall_ns += wall.as_nanos() as u64;
            self.drain_ns += end.drain.as_nanos() as u64;
            let r = &end.recovery;
            self.retransmit_calls += r.retransmit_calls.load(Ordering::Relaxed);
            self.replayed += r.replayed_records.load(Ordering::Relaxed);
            self.os_reads += r.os_reads.load(Ordering::Relaxed);
            self.callback_ns += r.callback_ns.load(Ordering::Relaxed);
            if phase == Phase::Saturating {
                self.sat_traced_wall_ns += wall.as_nanos() as u64;
                self.ctl_cpu_ns += cpu.saturating_sub(feeder);
                self.feeder_cpu_ns += feeder;
                if let Some((busy, life)) = end.busiest {
                    self.busiest_ns += busy;
                    self.busiest_life_ns += life.as_nanos() as u64;
                }
            }
        }
        (fed, end, wall)
    }

    /// A run-level breach.
    fn error(&mut self, e: String) {
        self.out.errors.push(e);
        self.run_breach = true;
    }
}

fn afr_channel(seed: u64) -> LossyChannel {
    let mut cfg = FaultConfig::lossless(seed ^ CHANNEL_SALT);
    cfg.afr = ClassProfile {
        loss: 0.10,
        duplicate: 0.02,
        reorder: 0.05,
        ..ClassProfile::IDEAL
    };
    LossyChannel::new(cfg)
}

/// `afr_ingest` (lossless) or `afr_lossy`: `bench_snapshot`'s AFR batches
/// replayed to the controller, saturating then paced.
pub fn afr(run: &Run, lossy: bool) -> Outcome {
    let mut acc = Acc::default();
    let mut ledger = Ledger::new(false);
    let dead: HashSet<u32> = if lossy {
        (0..AFR_SUBWINDOWS).filter(|i| i % 9 == 8).collect()
    } else {
        HashSet::new()
    };
    let spec = PassSpec {
        dead: Arc::new(dead),
        observed: lossy,
        threshold: AFR_THRESHOLD,
        record_closes: false,
    };

    // Set-up: the AFR batches, what of each crosses the channel (the
    // channel is seeded, so every pass would see the same survivors) and
    // one controller spawn.
    let mut setups = Setups::default();
    let mut channel_ns = Vec::new();
    let mut windows: Vec<Arc<[FlowRecord]>> = Vec::new();
    let mut arrivals: Vec<Arc<[FlowRecord]>> = Vec::new();
    let mut channel_stats = FaultStats::default();
    for _ in 0..SETUP_REPS_AFR {
        drop((std::mem::take(&mut windows), std::mem::take(&mut arrivals)));
        let (t, cpu) = (Instant::now(), CpuWatch::start());
        windows = cr_workload(AFR_SUBWINDOWS, AFR_RECORDS, AFR_POPULATION, run.seed)
            .into_iter()
            .map(Arc::from)
            .collect();
        let tc = CpuWatch::start();
        if lossy {
            let mut channel = afr_channel(run.seed);
            arrivals = windows
                .iter()
                .map(|w| Arc::from(channel.transmit(PacketClass::AfrReport, w.to_vec())))
                .collect();
            channel_stats = *channel.stats();
        } else {
            arrivals = windows.clone();
        }
        channel_ns.push(tc.secs() * 1e9);
        let idle = Pass::spawn(&spec, run.heart.clone());
        setups.push(&cpu, t);
        idle.close_idle();
    }
    let records: usize = windows.iter().map(|w| w.len()).sum();
    let setup_layers = SetupLayers {
        channel_ns_per_record: if lossy {
            median(&channel_ns) / records as f64
        } else {
            0.0
        },
        ..SetupLayers::default()
    };

    // The reference: a lossless serial fold of the same batches.
    let lossless: Vec<SerialWindow> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| SerialWindow::new(i as u32, w.clone(), w))
        .collect();
    let (_, reference) = serial::replay(&lossless, &HashSet::new());
    drop(lossless);
    if run.seed == DEFAULT_SEED && reference != PINNED_DIGEST {
        acc.error(format!(
            "lossless fold digest {reference:016x} at the default seed, pinned {PINNED_DIGEST:016x}"
        ));
    }
    acc.expect = Some(reference);

    // One pass over the windows; paced at `period` when given. Returns
    // how late the pass sent its latest window.
    let feed_all = |pass: &mut Pass, ledger: &mut Ledger, period: Option<Duration>| {
        let mut late = Duration::ZERO;
        let mut due = Instant::now();
        for (id, (exact, arriving)) in windows.iter().zip(&arrivals).enumerate() {
            if let Some(period) = period {
                due += period;
                pass.wait_until(ledger, due);
                late = late.max(Instant::now().saturating_duration_since(due));
            }
            pass.send_window(ledger, id as u32, exact, arriving);
        }
        late
    };

    // Saturating and paced passes interleave for the whole run, so both
    // phases sample the same stretch of host noise. On `afr_lossy` a paced
    // pass takes ~1.7 s against ~1 s for a saturating one, so a paced pass
    // follows only every third saturating pass there: more saturating
    // samples, and still over 100 closes in a 30 s run.
    let paced_every = if lossy { 3 } else { 1 };
    let paced_spec = PassSpec {
        record_closes: true,
        ..spec.clone()
    };
    // Paced load: 2.0 M rec/s offered on `afr_ingest` (at 10 ms/window,
    // 4.0 M rec/s, a contended host's capacity fell to ~4.4 M rec/s and
    // the median close grew from 5 to 14 ms by queueing alone), 1.0 M
    // rec/s on `afr_lossy`.
    let period = Duration::from_millis(if lossy { 40 } else { 20 });
    let (mut saturating_s, mut paced_s, mut late) = (0.0, 0.0, Duration::ZERO);
    let started = Instant::now();
    let (mut round, mut paced_passes) = (0u64, 0u64);
    loop {
        let traced = run.trace && round % 2 == 1;
        let t = Instant::now();
        acc.measure(
            run,
            &mut ledger,
            &spec,
            traced,
            Phase::Saturating,
            |p, l| feed_all(p, l, None),
        );
        saturating_s += t.elapsed().as_secs_f64();
        if traced {
            acc.channel.merge(&channel_stats);
        }
        if round % paced_every == paced_every - 1 {
            let t = Instant::now();
            let (pass_late, _, _) = acc.measure(
                run,
                &mut ledger,
                &paced_spec,
                run.trace,
                Phase::Paced,
                |p, l| feed_all(p, l, Some(period)),
            );
            paced_s += t.elapsed().as_secs_f64();
            late = late.max(pass_late);
            if run.trace {
                acc.channel.merge(&channel_stats);
            }
            paced_passes += 1;
        }
        round += 1;
        if started.elapsed().as_secs_f64() >= run.seconds
            && paced_passes >= 1
            && (!run.trace || round >= 2)
        {
            break;
        }
    }
    acc.late_max = late;

    let serial = run.trace.then(|| {
        let arrived: Vec<SerialWindow> = windows
            .iter()
            .zip(&arrivals)
            .enumerate()
            .map(|(i, (exact, arriving))| SerialWindow::new(i as u32, exact.clone(), arriving))
            .collect();
        serial_ledger(&mut acc, &arrived, &spec.dead)
    });

    let mut out = finish(acc, &ledger, setups, setup_layers, serial, run);
    out.meta_num("phase.saturating_s", saturating_s);
    out.meta_num("phase.paced_s", paced_s);
    out.meta_num("paced.period_ms", period.as_secs_f64() * 1e3);
    out.meta_str("fold_digest", &format!("{reference:016x}"));
    out
}

/// A window as the controller receives it after `channel`.
fn arrived_window(id: u32, exact: &Arc<[FlowRecord]>, channel: &mut LossyChannel) -> SerialWindow {
    SerialWindow::new(
        id,
        exact.clone(),
        &channel.transmit(PacketClass::AfrReport, exact.to_vec()),
    )
}

/// Replay the controller stages serially (repeated for at least
/// [`SERIAL_MIN`]) and check the digest against the threaded fold.
fn serial_ledger(acc: &mut Acc, windows: &[SerialWindow], dead: &HashSet<u32>) -> SerialStages {
    let mut total = SerialStages::default();
    let started = Instant::now();
    while total.windows == 0 || started.elapsed() < SERIAL_MIN {
        let (st, digest) = serial::replay(windows, dead);
        total.add(&st);
        if Some(digest) != acc.expect {
            acc.error(format!(
                "serial replay digest {digest:016x} differs from the threaded fold"
            ));
            break;
        }
    }
    total
}

type App = FrequencyApp<CountMin>;

fn mk_switch(s: usize, seed: u64) -> Switch<App> {
    let app = |salt: u64| {
        FrequencyApp::new(
            CountMin::new(2, SKETCH_WIDTH, seed ^ salt ^ ((s as u64) << 32)),
            KeyKind::SrcIp,
            false,
        )
    };
    verified_switch(
        SwitchConfig {
            signal: WindowSignal::Timeout(ow_common::time::Duration::from_nanos(
                SUBWINDOW.as_nanos() as u64,
            )),
            seed: SwitchConfig::default().seed ^ s as u64,
            ..SwitchConfig::default()
        },
        app(1),
        app(2),
    )
    .expect("the frequency pipeline verifies")
}

fn mk_trace(s: usize, seed: u64) -> Trace {
    TraceBuilder::new(TraceConfig {
        duration: ow_common::time::Duration::from_nanos(TRACE_SPAN.as_nanos() as u64),
        flows: TRACE_FLOWS,
        packets: TRACE_PACKETS,
        seed: ow_common::hash::mix64(seed ^ (s as u64 + 1)),
        ..TraceConfig::default()
    })
    .build()
}

fn packet_channel(s: usize, seed: u64) -> LossyChannel {
    LossyChannel::new(FaultConfig::afr_loss(
        ow_common::hash::mix64(seed ^ CHANNEL_SALT ^ s as u64),
        0.01,
    ))
}

/// One collected window of the `packets` workload.
struct Collected {
    switch: usize,
    id: u32,
    exact: Arc<[FlowRecord]>,
}

fn afr_batches(events: &[SwitchEvent]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e, SwitchEvent::AfrBatch { .. }))
        .count() as u64
}

/// Drive both traces, interleaved by timestamp, through fresh switches
/// into `pass`. Returns the packets processed, the channel counters and
/// (when `keep`) every collected window.
fn drive_packets(
    pass: &mut Pass,
    ledger: &mut Ledger,
    traces: &[Trace],
    mut switches: Vec<Switch<App>>,
    seed: u64,
    keep: bool,
) -> (u64, FaultStats, Vec<Collected>) {
    let mut channels: Vec<LossyChannel> = (0..SWITCHES).map(|s| packet_channel(s, seed)).collect();
    let mut collected = Vec::new();
    let mut emit = |pass: &mut Pass, ledger: &mut Ledger, s: usize, events: Vec<SwitchEvent>| {
        for e in events {
            if let SwitchEvent::AfrBatch {
                subwindow, outcome, ..
            } = e
            {
                let id = global_subwindow(s as u32, subwindow);
                // The switch numbers its sub-windows locally; the
                // controller sees fleet-global ids.
                let exact: Arc<[FlowRecord]> = outcome
                    .afrs
                    .into_iter()
                    .map(|mut r| {
                        r.subwindow = id;
                        r
                    })
                    .collect();
                if keep {
                    collected.push(Collected {
                        switch: s,
                        id,
                        exact: exact.clone(),
                    });
                }
                let arriving = ledger.time(Layer::Channel, exact.len() as u64, || {
                    channels[s].transmit(PacketClass::AfrReport, exact.to_vec())
                });
                pass.send_window(ledger, id, &exact, &arriving);
            }
        }
    };
    let mut cursor = [0usize; SWITCHES];
    let mut n = 0u64;
    // Back-to-back packets share clock reads: each lap charges the
    // packet's pick (one timestamp compare), `process` and the drop of
    // its events to the switch layer.
    let mut mark = ledger.start();
    loop {
        let s = match (
            traces[0].packets.get(cursor[0]),
            traces[1].packets.get(cursor[1]),
        ) {
            (Some(a), Some(b)) => usize::from(b.ts < a.ts),
            (Some(_), None) => 0,
            (None, Some(_)) => 1,
            (None, None) => break,
        };
        let pkt = traces[s].packets[cursor[s]];
        cursor[s] += 1;
        let events = switches[s].process(pkt);
        let batches = afr_batches(&events);
        if batches == 0 {
            drop(events);
            ledger.lap(&mut mark, Layer::SwitchUpdate, 1);
        } else {
            ledger.lap(&mut mark, Layer::SwitchCr, batches);
            emit(pass, ledger, s, events);
            mark = ledger.start();
        }
        n += 1;
        if n.is_multiple_of(POLL_EVERY_PACKETS) && pass.observer.pending() > 0 {
            pass.poll(ledger);
            mark = ledger.start();
        }
    }
    for (s, switch) in switches.iter_mut().enumerate() {
        let started = ledger.start();
        let events = switch.flush();
        ledger.stop(started, Layer::SwitchCr, afr_batches(&events));
        emit(pass, ledger, s, events);
    }
    let mut stats = FaultStats::default();
    for ch in &channels {
        stats.merge(ch.stats());
    }
    (n, stats, collected)
}

/// `packets`: the full data path.
pub fn packets(run: &Run) -> Outcome {
    let mut acc = Acc::default();
    let mut ledger = Ledger::new(false);
    let spec = PassSpec {
        dead: Arc::new(HashSet::new()),
        observed: false,
        threshold: PACKET_THRESHOLD,
        record_closes: true,
    };

    let mut setups = Setups::default();
    let (mut gen_s, mut verify_ms) = (Vec::new(), Vec::new());
    let mut traces = Vec::new();
    let mut switches = Vec::new();
    for _ in 0..SETUP_REPS_PACKETS {
        drop(std::mem::take(&mut traces));
        let (t, cpu) = (Instant::now(), CpuWatch::start());
        traces = (0..SWITCHES).map(|s| mk_trace(s, run.seed)).collect();
        gen_s.push(cpu.secs());
        let tv = CpuWatch::start();
        switches = (0..SWITCHES).map(|s| mk_switch(s, run.seed)).collect();
        verify_ms.push(tv.secs() * 1e3);
        let idle = Pass::spawn(&spec, run.heart.clone());
        setups.push(&cpu, t);
        idle.close_idle();
    }
    let total_packets: u64 = traces.iter().map(|t| t.len() as u64).sum();

    let started = Instant::now();
    let mut i = 0u64;
    let mut collected = Vec::new();
    loop {
        let traced = run.trace && i % 2 == 1;
        let sws = if i == 0 {
            std::mem::take(&mut switches)
        } else {
            (0..SWITCHES).map(|s| mk_switch(s, run.seed)).collect()
        };
        let ((n, stats, kept), _, wall) = acc.measure(
            run,
            &mut ledger,
            &spec,
            traced,
            Phase::Saturating,
            |p, l| drive_packets(p, l, &traces, sws, run.seed, i == 0),
        );
        if n != total_packets {
            acc.error(format!("drove {n} of {total_packets} packets"));
        }
        if traced {
            acc.channel.merge(&stats);
        } else {
            acc.packet_rates.push(n as f64 / wall.as_secs_f64());
        }
        if i == 0 {
            collected = kept;
            check_lossless_replay(&mut acc, run, &spec, &collected);
        }
        i += 1;
        if started.elapsed().as_secs_f64() >= run.seconds && (!run.trace || i >= 2) {
            break;
        }
    }
    let run_s = started.elapsed().as_secs_f64();

    let serial = run.trace.then(|| {
        let mut channels: Vec<LossyChannel> =
            (0..SWITCHES).map(|s| packet_channel(s, run.seed)).collect();
        let arrived: Vec<SerialWindow> = collected
            .iter()
            .map(|c| arrived_window(c.id, &c.exact, &mut channels[c.switch]))
            .collect();
        serial_ledger(&mut acc, &arrived, &HashSet::new())
    });
    let windows_per_pass = collected.len();
    let records_per_pass: usize = collected.iter().map(|c| c.exact.len()).sum();
    let max_local = collected.iter().map(|c| c.id & 0xFF).max().unwrap_or(0);

    let setup_layers = SetupLayers {
        trace_gen_s: median(&gen_s),
        verify_ms: median(&verify_ms),
        ..SetupLayers::default()
    };
    let mut out = finish(acc, &ledger, setups, setup_layers, serial, run);
    out.meta_num("phase.run_s", run_s);
    out.meta_num("packets_per_pass", total_packets as f64);
    out.meta_num("windows_per_pass", windows_per_pass as f64);
    out.meta_num("records_per_pass", records_per_pass as f64);
    out.meta_num("max_local_subwindow", f64::from(max_local));
    out
}

/// `packets`' fold must equal a lossless replay of its collected batches
/// through a fresh controller (run off the clock).
fn check_lossless_replay(acc: &mut Acc, run: &Run, spec: &PassSpec, collected: &[Collected]) {
    for c in collected {
        if c.exact.iter().enumerate().any(|(i, r)| r.seq != i as u32) {
            acc.error(format!("window {}: AFR seq ids are not 0..n", c.id));
        }
    }
    let mut off = Ledger::new(false);
    let mut pass = Pass::spawn(spec, run.heart.clone());
    for c in collected {
        pass.send_window(&mut off, c.id, &c.exact, &c.exact);
    }
    let end = pass.drain(&mut off);
    let digest = end.digest();
    let lossy = acc.expect.expect("the first pass set the digest");
    if digest != lossy || !end.errors.is_empty() {
        acc.error(format!(
            "lossless replay digest {digest:016x} ({:?}) differs from the lossy pass {lossy:016x}",
            end.errors
        ));
    }
}

/// The set-up repetitions. `setup_s` counts the set-up thread's on-CPU
/// time, because on a shared VM its wall time follows the
/// hypervisor's steal; the wall time is kept for the metadata.
#[derive(Default)]
struct Setups {
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
}

impl Setups {
    fn push(&mut self, cpu: &CpuWatch, started: Instant) {
        self.cpu_s.push(cpu.secs());
        self.wall_s.push(started.elapsed().as_secs_f64());
    }
}

/// Per-layer figures taken in set-up (set-up thread on-CPU time): medians
/// over the repetitions, 0
/// where the workload does not do that step in set-up.
#[derive(Default)]
struct SetupLayers {
    /// `TraceBuilder::build`, both traces, seconds.
    trace_gen_s: f64,
    /// `verified_switch`, both switches, milliseconds.
    verify_ms: f64,
    /// `LossyChannel::transmit` per record (`afr_lossy`).
    channel_ns_per_record: f64,
}

/// Assemble the metrics of the run.
fn finish(
    mut acc: Acc,
    ledger: &Ledger,
    setups: Setups,
    setup_layers: SetupLayers,
    serial: Option<SerialStages>,
    run: &Run,
) -> Outcome {
    let setup_s = median(&setups.cpu_s);
    let close_p50 = median(&acc.close_ms);
    let close_p90 = quantile(&acc.close_ms, 0.9);
    let records_per_s = median(&acc.rates);
    let st = serial.unwrap_or_default();
    let feeder_cover = ratio(ledger.total_ns() as f64, acc.traced_wall_ns as f64);
    let serial_cover = ratio(st.stages_ns() as f64, st.wall_ns as f64);
    if run.trace {
        for (what, cover) in [("feeder", feeder_cover), ("serial", serial_cover)] {
            if !(1.0 - LEDGER_TOLERANCE..=1.0 + 1e-9).contains(&cover) {
                acc.error(format!(
                    "ledger: timed {what} calls cover {cover:.4} of its wall time, \
                     outside [{:.2}, 1]",
                    1.0 - LEDGER_TOLERANCE
                ));
            }
        }
    }
    if acc.run_breach {
        acc.out.failed = acc.out.attempted;
    }
    if !run.trace {
        let cpu_per_record = ratio(acc.cpu_ns as f64, acc.cpu_records as f64);
        acc.out.metric("setup_s", setup_s, "s");
        acc.out.metric("cpu_ns_per_record", cpu_per_record, "ns");
        acc.out.metric("peak_rss_mb", sys::peak_rss_mb(), "MiB");
    } else {
        let l = |layer| ledger.slot(layer);
        let passes = acc.traced_passes.max(1) as f64;
        let windows = acc.traced_windows.max(1) as f64;
        let wall = acc.traced_wall_ns as f64;
        let sat_wall = acc.sat_traced_wall_ns as f64;
        let query: Vec<f64> = ledger.query_ns().iter().map(|&n| n as f64).collect();
        let m = &mut acc.out;
        m.metric("records_per_s", records_per_s, "1/s");
        m.metric("packets_per_s", median(&acc.packet_rates), "1/s");
        m.metric("close_p50_ms", close_p50, "ms");
        m.metric("close_p90_ms", close_p90, "ms");
        m.metric(
            "failed_window_ratio",
            ratio(m.failed as f64, m.attempted as f64),
            "ratio",
        );
        m.metric("trace.gen_s", setup_layers.trace_gen_s, "s");
        m.metric("verify.switch_ms", setup_layers.verify_ms, "ms");
        m.metric(
            "switch.update_ns_per_pkt",
            ns_per_item(l(Layer::SwitchUpdate)),
            "ns",
        );
        m.metric(
            "switch.cr_us_per_window",
            ns_per_item(l(Layer::SwitchCr)) / 1e3,
            "us",
        );
        m.metric(
            "switch.afrs_per_window",
            if l(Layer::SwitchCr).items == 0 {
                0.0
            } else {
                acc.traced_records as f64 / windows
            },
            "count",
        );
        let channel = acc.channel.class(PacketClass::AfrReport);
        let channel_ns = if l(Layer::Channel).items > 0 {
            ns_per_item(l(Layer::Channel))
        } else {
            setup_layers.channel_ns_per_record
        };
        m.metric("channel.ns_per_record", channel_ns, "ns");
        m.metric("channel.dropped", channel.dropped as f64 / passes, "count");
        m.metric(
            "channel.duplicated",
            channel.duplicated as f64 / passes,
            "count",
        );
        m.metric("block.ns_per_record", ns_per_item(l(Layer::Block)), "ns");
        m.metric(
            "ctl.send_wait_ns_per_record",
            ns_per_item(l(Layer::SendWait)),
            "ns",
        );
        m.metric("ctl.drain_ms", acc.drain_ns as f64 / passes / 1e6, "ms");
        m.metric(
            "ctl.cpu_cores",
            ratio(acc.ctl_cpu_ns as f64, sat_wall),
            "cores",
        );
        m.metric(
            "ctl.busiest_thread_share",
            ratio(acc.busiest_ns as f64, acc.busiest_life_ns as f64),
            "ratio",
        );
        m.metric(
            "feeder.cpu_cores",
            ratio(acc.feeder_cpu_ns as f64, sat_wall),
            "cores",
        );
        m.metric(
            "feeder.idle_share",
            ratio(l(Layer::Idle).ns as f64, wall),
            "ratio",
        );
        m.metric(
            "switch.wall_share",
            ratio(
                (l(Layer::SwitchUpdate).ns + l(Layer::SwitchCr).ns) as f64,
                wall,
            ),
            "ratio",
        );
        m.metric(
            "ctl.cpu_share",
            ratio(
                acc.ctl_cpu_ns as f64,
                (acc.ctl_cpu_ns + acc.feeder_cpu_ns) as f64,
            ),
            "ratio",
        );
        m.metric(
            "recovery.retransmit_calls",
            acc.retransmit_calls as f64 / passes,
            "count",
        );
        m.metric(
            "recovery.replayed_records",
            acc.replayed as f64 / passes,
            "count",
        );
        m.metric("recovery.os_reads", acc.os_reads as f64 / passes, "count");
        m.metric(
            "recovery.callback_us_per_window",
            acc.callback_ns as f64 / windows / 1e3,
            "us",
        );
        m.metric("query.flows_over_us_p50", median(&query) / 1e3, "us");
        m.metric("query.poll_us", ns_per_call(l(Layer::Poll)) / 1e3, "us");
        m.metric(
            "obs.health_tick_us",
            ns_per_call(l(Layer::HealthTick)) / 1e3,
            "us",
        );
        m.metric(
            "obs.feed_truth_us",
            ns_per_call(l(Layer::FeedTruth)) / 1e3,
            "us",
        );
        m.metric("obs.quiesce_ms", ns_per_call(l(Layer::Quiesce)) / 1e6, "ms");
        let per_record = |ns: u64| ratio(ns as f64, st.records as f64);
        let per_window_us = |ns: u64| ratio(ns as f64, st.windows as f64) / 1e3;
        m.metric("session.ns_per_record", per_record(st.session_ns), "ns");
        m.metric(
            "recovery.complete_us_per_window",
            per_window_us(st.complete_ns),
            "us",
        );
        m.metric("scatter.ns_per_record", per_record(st.scatter_ns), "ns");
        m.metric("fold.ns_per_record", per_record(st.fold_ns), "ns");
        m.metric("evict.us_per_window", per_window_us(st.evict_ns), "us");
        m.metric("ledger.feeder_sum_over_wall", feeder_cover, "ratio");
        m.metric("ledger.serial_sum_over_wall", serial_cover, "ratio");
        m.metric(
            "trace.overhead_pct",
            ratio(records_per_s - median(&acc.traced_rates), records_per_s) * 100.0,
            "%",
        );
        m.metric("gen.late_ms_max", acc.late_max.as_secs_f64() * 1e3, "ms");
        m.metric("close.samples", acc.close_ms.len() as f64, "count");
        m.metric("close.credited_after_evict", acc.credited as f64, "count");
    }
    let m = &mut acc.out;
    m.meta_num("setup_s.median", setup_s);
    m.meta_num("setup.reps", setups.cpu_s.len() as f64);
    m.meta.push((
        "setup_s.reps",
        json_list(&setups.cpu_s, |v| format!("{v:.4}")),
    ));
    m.meta.push((
        "setup_wall_s.reps",
        json_list(&setups.wall_s, |v| format!("{v:.4}")),
    ));
    m.meta_num("passes", acc.passes as f64);
    m.meta_num("records_per_s.median", records_per_s);
    m.meta.push((
        "records_per_s.passes",
        json_list(&acc.rates, |r| format!("{r:.0}")),
    ));
    m.meta_num("close.samples", acc.close_ms.len() as f64);
    m.meta_num("close.p50_ms", close_p50);
    m.meta_num("close.p90_ms", close_p90);
    m.meta_num("close.credited_after_evict", acc.credited as f64);
    m.meta_num("gen.late_ms_max", acc.late_max.as_secs_f64() * 1e3);
    m.meta_num("windows.attempted", m.attempted as f64);
    m.meta_num("windows.failed", m.failed as f64);
    acc.out
}

/// `[a, b, …]` with each value formatted by `fmt`.
fn json_list(xs: &[f64], fmt: impl Fn(f64) -> String) -> String {
    let items: Vec<String> = xs.iter().map(|&x| fmt(x)).collect();
    format!("[{}]", items.join(", "))
}
