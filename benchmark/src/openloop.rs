//! Accounting for the serving load generator.
//!
//! The open-loop phase sends on a fixed schedule whatever the server
//! does, so a stall delays every request due after it. Each request is
//! therefore timed from when it was *due*, not from when the generator got
//! round to sending it, and how late the generator ran is reported as its
//! lag. The closed-loop phase keeps every connection busy back to back;
//! its completion rate is the saturated capacity.

use std::time::Duration;

/// When request `i` of a schedule at `rate_per_s` requests per second is
/// due, measured from the start of the phase.
pub fn due(i: usize, rate_per_s: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate_per_s)
}

/// What one scheduled request asks of the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `POST /act` with observation row `row` for agent `agent`.
    Act {
        /// Index into the workload's observation rows.
        row: usize,
        /// Agent the row belongs to.
        agent: usize,
    },
    /// `POST /reload`.
    Reload,
}

/// One entry of an open-loop schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// When the request is due, from the start of the phase.
    pub due: Duration,
    /// The request.
    pub kind: Kind,
}

/// A fixed-rate schedule of `/act` requests over `seconds`, cycling
/// through `rows` observation rows and `agents` agents, with a reload due
/// at every whole multiple of `reload_every` when one is given. Slots are
/// sorted by due time; a reload due at the same instant as an act goes
/// first.
pub fn schedule(
    rate_per_s: f64,
    seconds: f64,
    rows: usize,
    agents: usize,
    reload_every: Option<Duration>,
) -> Vec<Slot> {
    let acts = (rate_per_s * seconds).round() as usize;
    let mut slots: Vec<Slot> = (0..acts)
        .map(|i| Slot {
            due: due(i, rate_per_s),
            kind: Kind::Act {
                row: i % rows,
                agent: i % agents,
            },
        })
        .collect();
    if let Some(every) = reload_every {
        let mut t = every;
        while t.as_secs_f64() < seconds {
            slots.push(Slot {
                due: t,
                kind: Kind::Reload,
            });
            t += every;
        }
    }
    slots.sort_by_key(|s| (s.due, s.kind != Kind::Reload));
    slots
}

/// The timestamps of one request, all measured from the phase start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When the generator actually sent it.
    pub sent: Duration,
    /// When its reply was complete.
    pub done: Duration,
}

impl Timing {
    /// Latency as the user sees it: from the due time to the reply, so a
    /// late send counts against the system that made the generator late.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// Time from the actual send to the reply.
    pub fn service(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }

    /// How late the generator sent the request.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Saturated throughput of a closed-loop phase: successful replies over
/// the time from the phase start to the last reply. Zero when nothing
/// succeeded or no time passed.
pub fn capacity_rps(successes: usize, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if successes == 0 || secs <= 0.0 {
        return 0.0;
    }
    successes as f64 / secs
}
