//! Point-to-point communication between ranks.
//!
//! Each rank owns a [`Comm`] handle. Sends are buffered (eager) and never
//! block; receives match on `(source, tag)` and may be posted as
//! nonblocking requests — which is the property the paper's redesigned
//! `bndry_exchangev` relies on ("start the asynchronous MPI communication
//! on the MPE with an MPI wait in the end", Section 7.6).
//!
//! `Comm` is transport-agnostic: all protocol state (matching, pooled
//! payload buffers, sequence watermarks, the fault layer, retry/backoff)
//! lives here, and raw delivery goes through the [`Transport`] seam
//! ([`crate::transport`]). The default backend is the in-process pooled
//! mailbox (ranks are threads; a send is a queue push and payloads travel
//! by move, so the steady-state hot path allocates nothing); the
//! [`crate::tcp`] backend speaks length-prefixed CRC-framed messages over
//! one `TcpStream` per peer pair and is what the multi-process world
//! ([`crate::process`]) runs on.
//!
//! # Failure semantics
//!
//! Receives are fallible: [`Comm::wait`] and [`Comm::recv`] return
//! `Result<Message, CommError>` and time out after the configurable
//! [`CommConfig::recv_timeout`] instead of killing the process. A receive
//! whose source rank is known dead fails fast with
//! [`CommError::ConnectionLost`] (TCP: the peer's socket closed) or
//! [`CommError::RankFailed`] (thread world: the peer's thread panicked —
//! the runner flags the world and wakes every blocked waiter).
//!
//! When a [`FaultPlan`] is armed on the world the communicator
//! additionally runs in *reliable* mode:
//!
//! * messages the plan "drops" are diverted to a world-shared retransmit
//!   log; the receiver's wait loop polls that log on every retry —
//!   retries pace themselves with exponential backoff plus deterministic
//!   jitter from [`CommConfig::retry_interval`] up to
//!   [`CommConfig::retry_max_interval`], bounded by
//!   [`CommConfig::max_retries`] — and recovers the exact payload: the
//!   in-process model of a sender-side retransmission protocol;
//! * every consumed message advances a per-source sequence watermark
//!   (exchange tags are strictly increasing per sender), and any message
//!   at or below the watermark is discarded on arrival — duplicated or
//!   re-delivered messages therefore accumulate exactly once;
//! * [`Comm::purge_below`] lets a recovery protocol advance the watermark
//!   wholesale after a rollback, so stale in-flight messages from an
//!   aborted step epoch can never contaminate the re-run.
//!
//! Reliable mode requires tags to be unique and non-decreasing per sender
//! — the distributed dycore's monotone exchange counter satisfies this.
//! The TCP backend always runs in reliable mode (process death and
//! reconnection make stale in-flight messages a real possibility), but
//! does not support the message-perturbation faults (drop/duplicate/
//! delay): those model an unreliable wire, and TCP *is* the reliable
//! wire. Without an armed plan on the mailbox backend, none of this
//! machinery is consulted: the hot path costs one `Option` check.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::fault::{splitmix64, FaultAction, FaultPlan};
use crate::transport::{MailboxTransport, Transport};

/// Wildcard source for receives.
pub const ANY_SOURCE: usize = usize::MAX;

/// Default for [`CommConfig::recv_timeout`]: how long a blocking receive
/// waits before reporting the job deadlocked.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Queue storage reserved for the unmatched list so steady-state traffic
/// never grows it.
const QUEUE_RESERVE: usize = 256;

/// Pooled payload buffers kept per rank.
const POOL_RESERVE: usize = 64;

/// Tunable communicator behavior, set per world via
/// [`run_ranks_with`](crate::runner::run_ranks_with).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommConfig {
    /// How long [`Comm::wait`] blocks before returning
    /// [`CommError::Timeout`]. Replaces the old hard-coded 60 s const.
    pub recv_timeout: Duration,
    /// In reliable mode, the *initial* pause between retransmit-log polls
    /// of a blocked receive. Subsequent polls back off exponentially
    /// (doubling per attempt, plus deterministic jitter) up to
    /// [`CommConfig::retry_max_interval`].
    pub retry_interval: Duration,
    /// Ceiling of the exponential retry backoff.
    pub retry_max_interval: Duration,
    /// In reliable mode, how many retransmit-log polls a single wait may
    /// make before giving up (bounds retry work even under a long
    /// `recv_timeout`).
    pub max_retries: u32,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            recv_timeout: RECV_TIMEOUT,
            retry_interval: Duration::from_millis(2),
            retry_max_interval: Duration::from_millis(50),
            max_retries: 100_000,
        }
    }
}

/// The retry pause before reliable-mode poll number `attempt` (0-based):
/// `retry_interval · 2^attempt`, capped at `retry_max_interval`, plus a
/// deterministic jitter of up to 25% drawn from `(rank, attempt)` — so
/// colliding ranks de-synchronize their polls without any shared RNG, and
/// the schedule is reproducible for a given world shape.
pub(crate) fn backoff_slice(cfg: &CommConfig, rank: usize, attempt: u32) -> Duration {
    let base = cfg.retry_interval.max(Duration::from_micros(50));
    let exp = attempt.min(20); // 2^20 · anything sane already exceeds the cap
    let grown = base
        .checked_mul(1u32 << exp)
        .map_or(cfg.retry_max_interval, |d| d.min(cfg.retry_max_interval));
    let jitter_room = (grown.as_nanos() / 4) as u64;
    let draw = splitmix64(
        (rank as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ u64::from(attempt) ^ 0xB0FF_5EED,
    );
    grown + Duration::from_nanos(if jitter_room == 0 { 0 } else { draw % (jitter_room + 1) })
}

/// Typed communication failure, surfaced instead of a panic so drivers can
/// abort a step, roll back to a checkpoint, and retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived within the configured window.
    Timeout {
        /// Receiving rank.
        rank: usize,
        /// Expected source ([`ANY_SOURCE`] shows as `usize::MAX`).
        source: usize,
        /// Expected tag.
        tag: u64,
        /// Arrived-but-unmatched messages held by the receiver.
        unmatched: usize,
        /// How long the receive waited, in milliseconds.
        waited_ms: u64,
    },
    /// A rank was declared failed (by fault injection or by a driver's
    /// failure detector) at the given step.
    RankFailed {
        /// The failed rank.
        rank: usize,
        /// The step at which it failed.
        step: u64,
    },
    /// The connection to `peer` is down (TCP backend: the peer's socket
    /// closed or reset — typically a dead process). The peer may come
    /// back: a supervisor respawn re-establishes the connection and
    /// subsequent receives succeed again.
    ConnectionLost {
        /// Receiving rank.
        rank: usize,
        /// The unreachable peer.
        peer: usize,
    },
    /// A transport-level I/O failure that is not a clean connection loss
    /// (socket errors on control channels, malformed frames, filesystem
    /// errors in process bootstrap).
    Io {
        /// Rank reporting the failure.
        rank: usize,
        /// Human-readable description.
        detail: String,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { rank, source, tag, unmatched, waited_ms } => write!(
                f,
                "rank {rank} timed out after {waited_ms} ms waiting for (source {source:?}, \
                 tag {tag}): {unmatched} unmatched pending"
            ),
            CommError::RankFailed { rank, step } => {
                write!(f, "rank {rank} failed at step {step}")
            }
            CommError::ConnectionLost { rank, peer } => {
                write!(f, "rank {rank}: connection to rank {peer} lost")
            }
            CommError::Io { rank, detail } => write!(f, "rank {rank}: transport I/O failed: {detail}"),
        }
    }
}

impl std::error::Error for CommError {}

/// One in-flight message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub source: usize,
    /// User tag.
    pub tag: u64,
    /// Payload.
    pub data: Vec<f64>,
}

/// Traffic counters for one rank (feed the network performance model and
/// the aggregation assertions in the distributed tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages sent.
    pub sends: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub recvs: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Dropped messages recovered from the retransmit log (reliable mode).
    pub recovered: u64,
    /// Stale (duplicated or superseded-epoch) messages discarded by the
    /// sequence watermark (reliable mode).
    pub stale_dropped: u64,
    /// Reliable-mode retry polls performed by blocked receives (each poll
    /// re-checks the retransmit log after one backoff pause).
    pub retry_attempts: u64,
}

/// A nonblocking receive request. Call [`Comm::wait`] on the owning rank's
/// [`Comm`] to complete it.
#[derive(Debug, Clone, Copy)]
pub struct RecvRequest {
    source: usize,
    tag: u64,
}

/// Per-rank message-fault machinery; only present when a plan that
/// perturbs messages is armed.
struct FaultLayer {
    plan: Arc<FaultPlan>,
    /// Messages sent so far by this rank (indexes the plan's schedule).
    sent: u64,
    /// Withheld messages: (remaining send slots, dest, message).
    delayed: Vec<(u32, usize, Message)>,
}

/// Per-rank communicator handle.
pub struct Comm {
    rank: usize,
    size: usize,
    /// Raw delivery backend (mailbox or TCP).
    link: Box<dyn Transport>,
    /// Arrived-but-unmatched messages.
    pending: VecDeque<Message>,
    /// Recycled payload buffers, reused by [`Comm::take_buffer`].
    pool: Vec<Vec<f64>>,
    stats: CommStats,
    cfg: CommConfig,
    /// Sequence-numbered idempotent delivery active (armed fault plan, or
    /// always on the TCP backend).
    reliable: bool,
    /// Per-source watermark: tags `< watermark[src]` have been consumed or
    /// superseded and are discarded on sight. Only advanced in reliable mode.
    watermark: Vec<u64>,
    /// World-shared retransmit log, indexed by destination rank: messages
    /// the fault plan "drops" land here and are recovered by the
    /// receiver's retry path. Mailbox worlds share one; TCP worlds hold an
    /// always-empty private one (the wire itself is reliable).
    relay: Arc<Vec<Mutex<Vec<Message>>>>,
    faults: Option<FaultLayer>,
}

impl Comm {
    /// Build the communicator handles for an `n`-rank world with default
    /// config and no fault plan.
    #[cfg(test)]
    pub(crate) fn world(n: usize) -> Vec<Comm> {
        Self::world_with(n, CommConfig::default(), None).0
    }

    /// Build an `n`-rank in-process (mailbox) world with explicit config
    /// and an optional armed fault plan. Also returns the world-failure
    /// alarm the runner uses to wake blocked receivers when a rank dies.
    pub(crate) fn world_with(
        n: usize,
        cfg: CommConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> (Vec<Comm>, crate::runner::WorldAlarm) {
        let (transports, boxes, monitor) = MailboxTransport::world(n);
        let relay: Arc<Vec<Mutex<Vec<Message>>>> =
            Arc::new((0..n).map(|_| Mutex::new(Vec::new())).collect());
        let comms = transports
            .into_iter()
            .enumerate()
            .map(|(rank, link)| Comm {
                rank,
                size: n,
                link: Box::new(link),
                pending: VecDeque::with_capacity(QUEUE_RESERVE),
                pool: Vec::with_capacity(POOL_RESERVE),
                stats: CommStats::default(),
                cfg,
                reliable: faults.is_some(),
                watermark: vec![0; n],
                relay: Arc::clone(&relay),
                faults: faults.as_ref().filter(|p| p.perturbs_messages()).map(|p| FaultLayer {
                    plan: Arc::clone(p),
                    sent: 0,
                    delayed: Vec::new(),
                }),
            })
            .collect();
        (comms, crate::runner::WorldAlarm::new(boxes, monitor))
    }

    /// Build one communicator over an arbitrary transport (the TCP
    /// backend). Always reliable (sequence watermarks armed): process
    /// death, reconnection and epoch rollback make stale in-flight
    /// messages a real possibility on a socket world. Message-perturbation
    /// fault plans are not supported here — the TCP stream *is* the
    /// reliable wire; process-level faults (kill, stall) live in the
    /// runner/supervisor instead.
    pub(crate) fn from_transport(
        rank: usize,
        size: usize,
        link: Box<dyn Transport>,
        cfg: CommConfig,
    ) -> Comm {
        Comm {
            rank,
            size,
            link,
            pending: VecDeque::with_capacity(QUEUE_RESERVE),
            pool: Vec::with_capacity(POOL_RESERVE),
            stats: CommStats::default(),
            cfg,
            reliable: true,
            watermark: vec![0; size],
            relay: Arc::new((0..size).map(|_| Mutex::new(Vec::new())).collect()),
            faults: None,
        }
    }

    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Traffic counters accumulated so far.
    #[inline]
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Current communicator configuration.
    #[inline]
    pub fn config(&self) -> CommConfig {
        self.cfg
    }

    /// Adjust the receive timeout (the old hard-coded [`RECV_TIMEOUT`] is
    /// now just this knob's default).
    pub fn set_recv_timeout(&mut self, timeout: Duration) {
        self.cfg.recv_timeout = timeout;
    }

    /// Buffers currently parked in this rank's recycle pool.
    #[inline]
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Hard cap on pooled buffers (the pool never grows past this).
    #[inline]
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Take a payload buffer of length `len` from the pool (zero-filled),
    /// falling back to a fresh allocation when the pool is dry. Pair with
    /// [`Comm::send_owned`] to send without copying, and [`Comm::recycle`]
    /// on the receiving side to keep the pools stocked.
    ///
    /// Selection prefers an exact capacity match, then the smallest buffer
    /// that fits. Exact-fit matters for determinism, not just footprint:
    /// link message sizes are symmetric (both directions of a link carry
    /// the same per-stage payload widths), so per-rank pool levels are
    /// invariant per size class across a step — but only if a small
    /// request never walks off with a larger class's buffer. First-fit let
    /// exactly that happen, and the resulting cross-rank size-class drift
    /// made steady-state allocations timing-dependent.
    pub fn take_buffer(&mut self, len: usize) -> Vec<f64> {
        let mut pick: Option<(usize, usize)> = None;
        for (i, b) in self.pool.iter().enumerate() {
            let cap = b.capacity();
            if cap == len {
                pick = Some((i, cap));
                break;
            }
            if cap > len && pick.is_none_or(|(_, c)| cap < c) {
                pick = Some((i, cap));
            }
        }
        if let Some((pos, _)) = pick {
            let mut buf = self.pool.swap_remove(pos);
            buf.clear();
            buf.resize(len, 0.0);
            buf
        } else {
            vec![0.0; len]
        }
    }

    /// Ensure the pool holds at least `count` buffers of capacity exactly
    /// `len`, allocating the shortfall up front (bounded by
    /// [`Comm::pool_capacity`]). A driver whose send timing is
    /// thread-schedule-dependent calls this at setup with one buffer per
    /// (link, distinct payload width) class: when an in-order link
    /// protocol bounds each class's transient take/recycle deficit at one,
    /// a stocked class never goes dry mid-step and steady-state sends stay
    /// allocation-free regardless of timing.
    pub fn stock_buffers(&mut self, len: usize, count: usize) {
        if len == 0 {
            return;
        }
        let have = self.pool.iter().filter(|b| b.capacity() == len).count();
        for _ in have..count {
            if self.pool.len() >= self.pool.capacity() {
                break;
            }
            self.pool.push(vec![0.0; len]);
        }
    }

    /// Return a received payload buffer to this rank's pool.
    pub fn recycle(&mut self, buf: Vec<f64>) {
        if self.pool.len() < self.pool.capacity() {
            self.pool.push(buf);
        }
    }

    /// Buffered (eager) send: copies the payload and returns immediately,
    /// i.e. `MPI_Isend` with an implicit buffer. The copy goes into a
    /// pooled buffer, so steady-state sends do not allocate.
    ///
    /// # Panics
    /// Panics if `dest` is out of range.
    pub fn send(&mut self, dest: usize, tag: u64, data: &[f64]) {
        let mut buf = self.take_buffer(data.len());
        buf.copy_from_slice(data);
        self.send_owned(dest, tag, buf);
    }

    /// Zero-copy send: the caller hands over the payload buffer (typically
    /// obtained from [`Comm::take_buffer`]) and it travels by move.
    ///
    /// Sends never report delivery failure: on a dead TCP peer the payload
    /// is dropped and the peer flagged lost — the receive side (here or at
    /// the peer) surfaces the failure as a typed error, which is what the
    /// rollback protocols key off.
    ///
    /// # Panics
    /// Panics if `dest` is out of range.
    pub fn send_owned(&mut self, dest: usize, tag: u64, data: Vec<f64>) {
        assert!(dest < self.size, "send to rank {dest} of {}", self.size);
        self.stats.sends += 1;
        self.stats.bytes_sent += (data.len() * 8) as u64;
        if self.faults.is_some() {
            self.send_through_faults(dest, tag, data);
        } else {
            self.link.send(dest, Message { source: self.rank, tag, data });
        }
    }

    /// Fault-layer send path: consult the plan, then deliver / divert /
    /// duplicate / withhold. Only reached with an armed plan, so this path
    /// is allowed to allocate.
    fn send_through_faults(&mut self, dest: usize, tag: u64, data: Vec<f64>) {
        // Age withheld messages by one send slot and collect the due ones.
        let mut due: Vec<(usize, Message)> = Vec::new();
        let action = {
            let layer = self.faults.as_mut().expect("fault layer present");
            let idx = layer.sent;
            layer.sent += 1;
            let mut i = 0;
            while i < layer.delayed.len() {
                layer.delayed[i].0 -= 1;
                if layer.delayed[i].0 == 0 {
                    let (_, d, m) = layer.delayed.swap_remove(i);
                    due.push((d, m));
                } else {
                    i += 1;
                }
            }
            layer.plan.message_action(self.rank, idx)
        };
        for (d, m) in due {
            self.link.send(d, m);
        }
        let msg = Message { source: self.rank, tag, data };
        match action {
            FaultAction::Deliver => self.link.send(dest, msg),
            FaultAction::Drop => {
                // Lost on the wire: park in the retransmit log for the
                // receiver's retry path.
                self.lock_relay(dest, "retransmit-log push").push(msg);
            }
            FaultAction::Duplicate => {
                self.link.send(dest, msg.clone());
                self.link.send(dest, msg);
            }
            FaultAction::Delay(k) => {
                let layer = self.faults.as_mut().expect("fault layer present");
                layer.delayed.push((k, dest, msg));
            }
        }
    }

    /// Deliver every withheld (fault-delayed) message now. Called whenever
    /// this rank is about to block — a sender that is stalled in a wait
    /// cannot credibly still have messages "in flight" — and on drop.
    pub fn flush_delayed(&mut self) {
        let Some(layer) = self.faults.as_mut() else { return };
        if layer.delayed.is_empty() {
            return;
        }
        let due: Vec<(usize, Message)> =
            layer.delayed.drain(..).map(|(_, d, m)| (d, m)).collect();
        for (d, m) in due {
            self.link.send(d, m);
        }
    }

    fn lock_relay(&self, slot: usize, what: &str) -> MutexGuard<'_, Vec<Message>> {
        self.relay[slot].lock().unwrap_or_else(|_| {
            panic!("rank {}: {what} mutex poisoned (a peer rank panicked)", self.rank)
        })
    }

    /// Post a nonblocking receive for `(source, tag)`. Matching happens at
    /// [`Comm::wait`]; posting never blocks.
    pub fn irecv(&self, source: usize, tag: u64) -> RecvRequest {
        RecvRequest { source, tag }
    }

    /// Scan the pending list for a match, sweeping stale entries along the
    /// way (reliable mode).
    fn match_pending(&mut self, req: &RecvRequest) -> Option<Message> {
        let mut i = 0;
        while i < self.pending.len() {
            if self.reliable && self.is_stale(&self.pending[i]) {
                let m = self.pending.remove(i).expect("position valid");
                self.discard_stale(m);
                continue;
            }
            if Self::matches(&self.pending[i], req) {
                let m = self.pending.remove(i).expect("position valid");
                self.consume(&m);
                return Some(m);
            }
            i += 1;
        }
        None
    }

    /// World-fatal or source-specific failure that should abort this
    /// receive, if any.
    fn dead_peer_error(&self, req: &RecvRequest) -> Option<CommError> {
        if let Some((rank, step)) = self.link.failed_peer() {
            return Some(CommError::RankFailed { rank, step });
        }
        if req.source != ANY_SOURCE && !self.link.peer_alive(req.source) {
            return Some(CommError::ConnectionLost { rank: self.rank, peer: req.source });
        }
        None
    }

    /// Complete a posted receive, blocking until a matching message
    /// arrives or the configured timeout expires.
    ///
    /// In reliable mode (armed fault plan, or the TCP backend) the wait
    /// also polls the retransmit log to recover dropped messages — pacing
    /// the polls with exponential backoff + deterministic jitter — and
    /// discards stale (below-watermark) arrivals so duplicates accumulate
    /// exactly once. A receive from a known-dead source fails fast with
    /// [`CommError::ConnectionLost`] / [`CommError::RankFailed`] instead
    /// of burning the whole timeout.
    pub fn wait(&mut self, req: RecvRequest) -> Result<Message, CommError> {
        self.flush_delayed();
        if let Some(m) = self.match_pending(&req) {
            return Ok(m);
        }
        let start = Instant::now();
        let deadline = start + self.cfg.recv_timeout;
        let mut attempts = 0u32;
        loop {
            // Pull in whatever has arrived since we last looked.
            let mut sink = std::mem::take(&mut self.pending);
            self.link.drain(&mut sink);
            self.pending = sink;
            if let Some(m) = self.match_pending(&req) {
                return Ok(m);
            }
            if self.reliable {
                if let Some(m) = self.take_from_relay(&req) {
                    self.stats.recovered += 1;
                    self.consume(&m);
                    return Ok(m);
                }
            }
            if let Some(err) = self.dead_peer_error(&req) {
                return Err(err);
            }
            let now = Instant::now();
            if now >= deadline || (self.reliable && attempts >= self.cfg.max_retries) {
                return Err(self.timeout_error(&req, start));
            }
            let slice = if self.reliable {
                self.stats.retry_attempts += 1;
                backoff_slice(&self.cfg, self.rank, attempts).min(deadline - now)
            } else {
                deadline - now
            };
            attempts += 1;
            let mut sink = std::mem::take(&mut self.pending);
            self.link.drain_wait(slice, &mut sink);
            self.pending = sink;
        }
    }

    /// Nonblocking completion probe for a posted receive: returns
    /// `Ok(Some(..))` if a matching message is already here, `Ok(None)`
    /// otherwise — never blocks and never times out. An event-driven
    /// driver polls with this while useful work remains and falls back to
    /// [`Comm::wait`] only when it runs out of work.
    ///
    /// In reliable mode the probe also sweeps stale arrivals and checks
    /// the retransmit log, so dropped messages can be recovered without a
    /// blocking wait. A known-dead source surfaces as an error, exactly as
    /// in [`Comm::wait`].
    pub fn try_wait(&mut self, req: RecvRequest) -> Result<Option<Message>, CommError> {
        self.flush_delayed();
        if let Some(m) = self.match_pending(&req) {
            return Ok(Some(m));
        }
        let mut sink = std::mem::take(&mut self.pending);
        self.link.drain(&mut sink);
        self.pending = sink;
        if let Some(m) = self.match_pending(&req) {
            return Ok(Some(m));
        }
        if self.reliable {
            if let Some(m) = self.take_from_relay(&req) {
                self.stats.recovered += 1;
                self.consume(&m);
                return Ok(Some(m));
            }
        }
        if let Some(err) = self.dead_peer_error(&req) {
            return Err(err);
        }
        Ok(None)
    }

    /// Blocking receive (`irecv` + `wait`).
    pub fn recv(&mut self, source: usize, tag: u64) -> Result<Message, CommError> {
        let req = self.irecv(source, tag);
        self.wait(req)
    }

    fn timeout_error(&self, req: &RecvRequest, start: Instant) -> CommError {
        CommError::Timeout {
            rank: self.rank,
            source: req.source,
            tag: req.tag,
            unmatched: self.unmatched(),
            waited_ms: start.elapsed().as_millis() as u64,
        }
    }

    fn matches(m: &Message, req: &RecvRequest) -> bool {
        (req.source == ANY_SOURCE || m.source == req.source) && m.tag == req.tag
    }

    /// Account a consumed message and advance the per-source watermark so
    /// any later copy of it is recognized as stale.
    fn consume(&mut self, m: &Message) {
        self.stats.recvs += 1;
        self.stats.bytes_received += (m.data.len() * 8) as u64;
        if self.reliable {
            let wm = &mut self.watermark[m.source];
            *wm = (*wm).max(m.tag + 1);
        }
    }

    #[inline]
    fn is_stale(&self, m: &Message) -> bool {
        m.tag < self.watermark[m.source]
    }

    fn discard_stale(&mut self, m: Message) {
        self.stats.stale_dropped += 1;
        self.recycle(m.data);
    }

    fn take_from_relay(&mut self, req: &RecvRequest) -> Option<Message> {
        let mut slot = self.lock_relay(self.rank, "retransmit-log scan");
        let pos = slot
            .iter()
            .position(|m| Self::matches(m, req) && !(self.reliable && self.is_stale(m)))?;
        Some(slot.swap_remove(pos))
    }

    /// Advance every per-source watermark to at least `floor` and discard
    /// all held messages below it (pending list, transport inbox, and this
    /// rank's retransmit-log slot). Recovery protocols call this after
    /// restoring a checkpoint with the new epoch's tag floor, so in-flight
    /// messages from the aborted attempt can never be matched by the
    /// re-run. Returns the number of messages purged.
    pub fn purge_below(&mut self, floor: u64) -> usize {
        for wm in &mut self.watermark {
            *wm = (*wm).max(floor);
        }
        let mut sink = std::mem::take(&mut self.pending);
        self.link.drain(&mut sink);
        self.pending = sink;
        let mut purged = 0;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].tag < floor {
                let m = self.pending.remove(i).expect("position valid");
                self.discard_stale(m);
                purged += 1;
            } else {
                i += 1;
            }
        }
        let mut slot = self.lock_relay(self.rank, "retransmit-log purge");
        let before = slot.len();
        slot.retain(|m| m.tag >= floor);
        purged + (before - slot.len())
    }

    /// Messages that have arrived but not been matched yet. In reliable
    /// mode, stale (below-watermark) copies awaiting lazy discard are not
    /// counted — they can never match anything.
    pub fn unmatched(&self) -> usize {
        let live = |m: &Message| !self.reliable || m.tag >= self.watermark[m.source];
        let mut queued = 0usize;
        self.link.for_each_queued(&mut |m| {
            if live(m) {
                queued += 1;
            }
        });
        self.pending.iter().filter(|m| live(m)).count() + queued
    }
}

impl Drop for Comm {
    fn drop(&mut self) {
        // A rank that exits while holding fault-delayed messages must put
        // them on the wire — peers may still be blocked waiting for them.
        self.flush_delayed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_rank_roundtrip() {
        let mut world = Comm::world(2);
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c0.send(1, 7, &[1.0, 2.0]);
        let m = c1.recv(0, 7).unwrap();
        assert_eq!(m.data, vec![1.0, 2.0]);
        assert_eq!(m.source, 0);
        assert_eq!(c0.stats().bytes_sent, 16);
        assert_eq!(c1.stats().bytes_received, 16);
    }

    #[test]
    fn out_of_order_matching() {
        let mut world = Comm::world(2);
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c0.send(1, 1, &[1.0]);
        c0.send(1, 2, &[2.0]);
        // Receive tag 2 first even though tag 1 arrived first.
        assert_eq!(c1.recv(0, 2).unwrap().data, vec![2.0]);
        assert_eq!(c1.unmatched(), 1);
        assert_eq!(c1.recv(0, 1).unwrap().data, vec![1.0]);
        assert_eq!(c1.unmatched(), 0);
    }

    #[test]
    fn any_source_matches_first_arrival() {
        let mut world = Comm::world(3);
        let mut c2 = world.pop().unwrap();
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c0.send(2, 9, &[0.5]);
        c1.send(2, 9, &[1.5]);
        let a = c2.recv(ANY_SOURCE, 9).unwrap();
        let b = c2.recv(ANY_SOURCE, 9).unwrap();
        let mut sources = [a.source, b.source];
        sources.sort_unstable();
        assert_eq!(sources, [0, 1]);
    }

    #[test]
    fn irecv_can_be_posted_before_send() {
        let mut world = Comm::world(2);
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        let req = c1.irecv(0, 3);
        c0.send(1, 3, &[4.0]);
        assert_eq!(c1.wait(req).unwrap().data, vec![4.0]);
    }

    #[test]
    fn send_owned_moves_payload_and_recycle_reuses_it() {
        let mut world = Comm::world(2);
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        let mut buf = c0.take_buffer(3);
        buf.copy_from_slice(&[1.0, 2.0, 3.0]);
        let ptr = buf.as_ptr();
        c0.send_owned(1, 5, buf);
        let m = c1.wait(c1.irecv(0, 5)).unwrap();
        assert_eq!(m.data, vec![1.0, 2.0, 3.0]);
        // The payload travelled by move: same backing storage end to end.
        assert_eq!(m.data.as_ptr(), ptr);
        c1.recycle(m.data);
        let reused = c1.take_buffer(2);
        assert_eq!(reused.as_ptr(), ptr);
        assert_eq!(reused, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "send to rank")]
    fn send_out_of_range() {
        let mut world = Comm::world(1);
        let mut c0 = world.pop().unwrap();
        c0.send(1, 0, &[]);
    }

    #[test]
    fn recv_times_out_with_typed_error_and_unmatched_intact() {
        let mut world = Comm::world(2);
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c1.set_recv_timeout(Duration::from_millis(30));
        // An unrelated message arrives but must not match — and must still
        // be accounted as unmatched after the timeout fires.
        c0.send(1, 99, &[3.0]);
        let err = c1.recv(0, 7).unwrap_err();
        match err {
            CommError::Timeout { rank, source, tag, unmatched, .. } => {
                assert_eq!(rank, 1);
                assert_eq!(source, 0);
                assert_eq!(tag, 7);
                assert_eq!(unmatched, 1);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(c1.unmatched(), 1);
        // The unrelated message is still deliverable afterwards.
        assert_eq!(c1.recv(0, 99).unwrap().data, vec![3.0]);
        assert_eq!(c1.unmatched(), 0);
    }

    #[test]
    fn pool_stays_bounded_under_asymmetric_traffic() {
        // Rank 0 sends far more than it receives; rank 1 recycles every
        // payload. Neither pool may grow past its reserved capacity.
        let mut world = Comm::world(2);
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        for round in 0..(8 * POOL_RESERVE) {
            c0.send(1, round as u64, &[round as f64; 16]);
            let m = c1.recv(0, round as u64).unwrap();
            c1.recycle(m.data);
        }
        assert!(c0.pool_len() <= POOL_RESERVE, "sender pool grew to {}", c0.pool_len());
        assert!(c1.pool_len() <= POOL_RESERVE, "receiver pool grew to {}", c1.pool_len());
        assert_eq!(c1.pool_capacity(), POOL_RESERVE);
        // The receiver's pool now feeds its own sends without allocating:
        // buffers keep cycling, the count never exceeds the cap.
        for round in 0..POOL_RESERVE {
            c1.send(0, round as u64, &[1.0; 16]);
            let m = c0.recv(1, round as u64).unwrap();
            c0.recycle(m.data);
        }
        assert!(c0.pool_len() <= POOL_RESERVE);
        assert!(c1.pool_len() <= POOL_RESERVE);
    }

    #[test]
    fn take_buffer_prefers_exact_fit_and_stock_prevents_class_drift() {
        let mut world = Comm::world(1);
        let mut c = world.pop().unwrap();
        // Stock two size classes; the pool records the shortfall exactly.
        c.stock_buffers(8, 1);
        c.stock_buffers(32, 1);
        assert_eq!(c.pool_len(), 2);
        // A request for the small class must take the 8-capacity buffer,
        // not walk off with the 32-capacity one (first-fit used to).
        let small = c.take_buffer(8);
        assert_eq!(small.capacity(), 8);
        // The large class is still intact for its own request.
        let large = c.take_buffer(32);
        assert_eq!(large.capacity(), 32);
        assert_eq!(c.pool_len(), 0);
        c.recycle(small);
        c.recycle(large);
        // With no exact match, the smallest adequate buffer is picked.
        let mid = c.take_buffer(16);
        assert_eq!(mid.capacity(), 32);
        c.recycle(mid);
        // Re-stocking an already-stocked class allocates nothing new.
        c.stock_buffers(8, 1);
        c.stock_buffers(32, 1);
        assert_eq!(c.pool_len(), 2);
        // Zero-length classes are ignored.
        c.stock_buffers(0, 4);
        assert_eq!(c.pool_len(), 2);
    }

    #[test]
    fn dropped_message_is_recovered_from_relay() {
        // Drop everything: every send is diverted to the retransmit log
        // and must come back through the retry path, payload intact.
        let plan = Arc::new(FaultPlan::seeded(3).drop_per_mille(1000));
        let (mut world, _alarm) = Comm::world_with(2, CommConfig::default(), Some(plan));
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c0.send(1, 11, &[5.0, 6.0]);
        let m = c1.recv(0, 11).unwrap();
        assert_eq!(m.data, vec![5.0, 6.0]);
        assert_eq!(c1.stats().recovered, 1);
        assert_eq!(c1.unmatched(), 0);
    }

    #[test]
    fn duplicates_are_consumed_exactly_once() {
        let plan = Arc::new(FaultPlan::seeded(3).duplicate_per_mille(1000));
        let (mut world, _alarm) = Comm::world_with(2, CommConfig::default(), Some(plan));
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c0.send(1, 1, &[1.0]);
        c0.send(1, 2, &[2.0]);
        assert_eq!(c1.recv(0, 1).unwrap().data, vec![1.0]);
        assert_eq!(c1.recv(0, 2).unwrap().data, vec![2.0]);
        // The duplicate copies are stale and invisible to unmatched().
        assert_eq!(c1.unmatched(), 0);
        // A later wait sweeps them into the recycle pool.
        c0.send(1, 3, &[3.0]);
        assert_eq!(c1.recv(0, 3).unwrap().data, vec![3.0]);
        assert_eq!(c1.stats().stale_dropped, 2);
        assert_eq!(c1.unmatched(), 0);
    }

    #[test]
    fn try_wait_is_nonblocking_and_matches_when_ready() {
        let mut world = Comm::world(2);
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        let req = c1.irecv(0, 4);
        // Nothing there yet: immediate None, no timeout.
        assert!(c1.try_wait(req).unwrap().is_none());
        c0.send(1, 4, &[8.0]);
        assert_eq!(c1.try_wait(req).unwrap().unwrap().data, vec![8.0]);
        // Non-matching arrivals are parked, not lost.
        c0.send(1, 77, &[9.0]);
        assert!(c1.try_wait(c1.irecv(0, 5)).unwrap().is_none());
        assert_eq!(c1.unmatched(), 1);
        assert_eq!(c1.recv(0, 77).unwrap().data, vec![9.0]);
    }

    #[test]
    fn try_wait_recovers_dropped_message_from_relay() {
        let plan = Arc::new(FaultPlan::seeded(3).drop_per_mille(1000));
        let (mut world, _alarm) = Comm::world_with(2, CommConfig::default(), Some(plan));
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c0.send(1, 11, &[5.0]);
        let m = c1.try_wait(c1.irecv(0, 11)).unwrap().expect("relayed");
        assert_eq!(m.data, vec![5.0]);
        assert_eq!(c1.stats().recovered, 1);
        // A duplicate of a consumed tag is swept as stale by the probe.
        let plan = Arc::new(FaultPlan::seeded(3).duplicate_per_mille(1000));
        let (mut world, _alarm) = Comm::world_with(2, CommConfig::default(), Some(plan));
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c0.send(1, 1, &[1.0]);
        assert_eq!(c1.recv(0, 1).unwrap().data, vec![1.0]);
        assert!(c1.try_wait(c1.irecv(0, 2)).unwrap().is_none());
        assert_eq!(c1.stats().stale_dropped, 1);
    }

    #[test]
    fn purge_below_discards_stale_epoch() {
        let plan = Arc::new(FaultPlan::seeded(0)); // armed => reliable mode
        let (mut world, _alarm) = Comm::world_with(2, CommConfig::default(), Some(plan));
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c0.send(1, 5, &[1.0]);
        c0.send(1, 6, &[2.0]);
        c0.send(1, 100, &[3.0]);
        let purged = c1.purge_below(100);
        assert_eq!(purged, 2);
        assert_eq!(c1.unmatched(), 1);
        assert_eq!(c1.recv(0, 100).unwrap().data, vec![3.0]);
        assert_eq!(c1.unmatched(), 0);
    }

    #[test]
    fn reliable_retries_back_off_and_are_counted() {
        // Reliable mode (armed empty plan) with nothing arriving: the wait
        // must make several backoff-paced retry polls, count them in the
        // stats, and still time out with the typed error.
        let plan = Arc::new(FaultPlan::seeded(0));
        let cfg = CommConfig {
            recv_timeout: Duration::from_millis(60),
            retry_interval: Duration::from_millis(1),
            retry_max_interval: Duration::from_millis(8),
            max_retries: 1000,
        };
        let (mut world, _alarm) = Comm::world_with(2, cfg, Some(plan));
        let mut c1 = world.pop().unwrap();
        let err = c1.recv(0, 7).unwrap_err();
        assert!(matches!(err, CommError::Timeout { .. }), "got {err:?}");
        let polls = c1.stats().retry_attempts;
        // 1+2+4+8+8+... ms covers 60 ms in well under 15 polls; a fixed
        // 1 ms cadence would need ~60. The backoff must show in the count.
        assert!((3..20).contains(&polls), "retry polls: {polls}");
    }

    #[test]
    fn backoff_slice_is_deterministic_and_bounded() {
        let cfg = CommConfig::default();
        for rank in 0..4 {
            for attempt in 0..24 {
                let a = backoff_slice(&cfg, rank, attempt);
                let b = backoff_slice(&cfg, rank, attempt);
                assert_eq!(a, b, "jitter must be deterministic");
                assert!(a >= cfg.retry_interval);
                // Cap plus 25% jitter headroom.
                assert!(a <= cfg.retry_max_interval + cfg.retry_max_interval / 4 + Duration::from_nanos(1));
            }
        }
        // Different ranks de-synchronize: not all slices identical.
        let r0 = backoff_slice(&cfg, 0, 3);
        let r1 = backoff_slice(&cfg, 1, 3);
        let r2 = backoff_slice(&cfg, 2, 3);
        assert!(r0 != r1 || r1 != r2, "jitter should separate ranks");
    }
}
