//! Window-close observer.
//!
//! A window closes when its sub-window is merged and a threshold query
//! has returned with it. The controller exposes merged sub-windows only
//! through `LiveHandle::subwindows` (shard 0's list, oldest first), and a
//! sub-window slides out of that list `span` merges later. The router
//! merges sub-windows in the order their `EndOfStream` marks arrive, so
//! once a later window is in the list every window sent before it has
//! merged — including one that was merged and evicted between two polls.
//! Such a window is credited at that poll and counted in
//! `credited_after_evict`, never dropped and never waited for.
//!
//! The feeder polls after every send as well as while it waits, and every
//! wait is bounded by a deadline, so a wedged window becomes a failed
//! window instead of a hang.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ow_controller::live::LiveHandle;

use crate::ledger::{Layer, Ledger};

/// Sleep between polls while waiting.
pub const POLL_SLEEP: Duration = Duration::from_micros(20);

/// Tracks sent windows until they are proven merged.
#[derive(Debug, Default)]
pub struct CloseObserver {
    /// Windows whose `EndOfStream` was sent, in send order, with the
    /// instant their `Announce` was sent.
    pending: VecDeque<(u32, Instant)>,
    /// Close latencies (ms) of windows registered with `record`.
    pub samples_ms: Vec<f64>,
    /// Windows proven merged.
    pub closed: u64,
    /// Windows proven merged only after they had slid out of the list.
    pub credited_after_evict: u64,
    record: bool,
}

impl CloseObserver {
    /// An observer; `record` keeps each close latency.
    pub fn new(record: bool) -> CloseObserver {
        CloseObserver {
            record,
            ..CloseObserver::default()
        }
    }

    /// Register window `id`, whose `EndOfStream` has just been sent and
    /// whose `Announce` was sent at `announced_at`.
    pub fn sent(&mut self, id: u32, announced_at: Instant) {
        self.pending.push_back((id, announced_at));
    }

    /// Windows not yet proven merged.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// One poll. When it proves windows merged, the threshold query runs
    /// once and every such window closes at the instant it returned.
    pub fn poll(&mut self, handle: &LiveHandle, threshold: f64, ledger: &mut Ledger) {
        if self.pending.is_empty() {
            return;
        }
        let present = ledger.time(Layer::Poll, 0, || handle.subwindows());
        let Some(newest) = present.last() else {
            return;
        };
        let Some(upto) = self.pending.iter().position(|(id, _)| id == newest) else {
            return;
        };
        let answer = ledger.time(Layer::Query, 0, || handle.flows_over(threshold));
        std::hint::black_box(answer);
        let done = Instant::now();
        for (id, announced_at) in self.pending.drain(..=upto) {
            if !present.contains(&id) {
                self.credited_after_evict += 1;
            }
            self.closed += 1;
            if self.record {
                self.samples_ms
                    .push(done.duration_since(announced_at).as_secs_f64() * 1e3);
            }
        }
    }

    /// Poll until `deadline`, sleeping between polls. With `until_idle`
    /// the wait also ends once nothing is pending.
    pub fn wait(
        &mut self,
        handle: &LiveHandle,
        threshold: f64,
        ledger: &mut Ledger,
        deadline: Instant,
        until_idle: bool,
    ) {
        loop {
            self.poll(handle, threshold, ledger);
            let now = Instant::now();
            if now >= deadline || (until_idle && self.pending.is_empty()) {
                return;
            }
            let nap = if self.pending.is_empty() {
                deadline - now
            } else {
                POLL_SLEEP.min(deadline - now)
            };
            ledger.time(Layer::Idle, 0, || std::thread::sleep(nap));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::afr::FlowRecord;
    use ow_common::block::RecordBlock;
    use ow_common::flowkey::FlowKey;
    use ow_controller::live::{ReliableLiveController, ReliableMsg};
    use ow_controller::reliability::RetryPolicy;

    fn controller() -> ReliableLiveController {
        ReliableLiveController::spawn_sharded(
            4,
            64,
            RetryPolicy::default(),
            Box::new(|_, _| Vec::new()),
            Box::new(|_| panic!("lossless test windows never escalate")),
            2,
        )
    }

    fn send(ctl: &ReliableLiveController, sw: u32, eos: bool) {
        let recs: Vec<FlowRecord> = (0..8u32)
            .map(|i| {
                let mut r = FlowRecord::frequency(FlowKey::src_ip(i), 1, sw);
                r.seq = i;
                r
            })
            .collect();
        ctl.sender
            .send(ReliableMsg::Announce {
                subwindow: sw,
                announced: 8,
            })
            .unwrap();
        ctl.sender
            .send(ReliableMsg::AfrBlock(RecordBlock::from_records(sw, &recs)))
            .unwrap();
        if eos {
            ctl.sender
                .send(ReliableMsg::EndOfStream { subwindow: sw })
                .unwrap();
        }
    }

    /// A generator stall followed by back-to-back sends: windows merge
    /// and slide out of the 4-window span before the next poll. They
    /// are credited, not dropped and not waited for forever.
    #[test]
    fn back_to_back_windows_evicted_before_poll_are_credited() {
        let ctl = controller();
        let handle = ctl.handle.clone();
        let mut obs = CloseObserver::new(true);
        let t = Instant::now();
        for sw in 0..12 {
            send(&ctl, sw, true);
            obs.sent(sw, t);
        }
        // Let every window merge (and the first eight slide out) before
        // the observer's first poll.
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.subwindows().last() != Some(&11) {
            assert!(Instant::now() < deadline, "windows never merged");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut ledger = Ledger::new(true);
        obs.wait(&handle, 1.0, &mut ledger, deadline, true);
        assert_eq!(obs.pending(), 0);
        assert_eq!(obs.closed, 12);
        assert_eq!(obs.credited_after_evict, 8);
        assert_eq!(obs.samples_ms.len(), 12);
        assert_eq!(
            ledger.slot(Layer::Query).calls,
            1,
            "one query proves all 12"
        );
        ctl.join();
    }

    /// A window that never merges ends the bounded wait at its deadline
    /// and stays pending (a failed window), without hanging.
    #[test]
    fn wedged_window_ends_the_wait_at_its_deadline() {
        let ctl = controller();
        let handle = ctl.handle.clone();
        let mut obs = CloseObserver::new(false);
        send(&ctl, 0, false);
        obs.sent(0, Instant::now());
        let mut ledger = Ledger::new(false);
        let started = Instant::now();
        obs.wait(
            &handle,
            1.0,
            &mut ledger,
            started + Duration::from_millis(50),
            true,
        );
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!((obs.pending(), obs.closed), (1, 0));
        ctl.join();
    }
}
