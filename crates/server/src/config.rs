//! Server sizing knobs: shard count, batch size, epoch retention, and the
//! wire listener's timeout, auth and ack interval.

use std::time::Duration;

/// Configuration of one [`LdpServer`](crate::LdpServer) instance.
///
/// The defaults are sized for tests and examples; production-shaped runs set
/// `shards` to the number of ingesting threads.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Aggregator shards, each behind its own lock. An ingesting thread
    /// absorbs each batch (a filled buffer or a wire frame) into one free
    /// shard, whole; the exact integer merge makes every estimate
    /// independent of which shard absorbed what, and of the shard count.
    /// Server memory stays `O(shards · Σ_j k_j + concurrent callers ·
    /// batch)` no matter how fast clients push: the shards, plus the one
    /// batch each ingesting caller holds.
    pub shards: usize,
    /// Reports per absorbed batch: [`LdpServer::ingest_batch`](crate::LdpServer::ingest_batch)
    /// fills buffers of this many envelopes, and the wire listener rejects
    /// any BATCH_SEQ frame of more reports with `ABORT_PROTOCOL`, since a
    /// frame is absorbed whole under one shard lock. It is the `batch` of
    /// the memory bound above.
    pub batch: usize,
    /// How many closed per-epoch snapshots the server retains in its epoch
    /// ring (see [`LdpServer::advance_epoch`](crate::LdpServer::advance_epoch)).
    /// Older epochs are folded into the cumulative aggregate and their
    /// windowed snapshots dropped — retention bounds server memory at
    /// `O(retain · Σ_j k_j)` however long a longitudinal campaign runs.
    pub retain: usize,
    /// Socket read timeout for the wire listener's connections, in
    /// milliseconds; `0` disables the timeout. A connection that stays
    /// silent longer than this is ABORTed and closed, so a hung producer
    /// (dead process, half-open TCP session) can never pin a handler thread
    /// forever. The fleet's liveness rules derive from it, with no knob of
    /// their own:
    ///
    /// * **Reap.** A faulted session that did work (ingested, announced an
    ///   EPOCH or resumed) and has not resumed within the longer of this
    ///   timeout and the client's longest backoff step (1 s) is reaped from
    ///   the drain count and the epoch barrier, so a hung producer cannot
    ///   wedge either forever. The floor spans one backoff step: a producer
    ///   whose redials keep failing for longer can still be reaped. A
    ///   session that did no work (its producer died after HELLO_ACK,
    ///   before its first batch) is never reaped, however short this
    ///   timeout: it counts as a producer not yet started, and restarting
    ///   that producer completes the rendezvous.
    /// * **No withdrawal.** An EPOCH barrier waiter waits for the declared
    ///   fleet less the reaped however long that takes, as
    ///   `WireServer::wait_for_fleet` does.
    ///
    /// With `0`, faulted sessions are never reaped, matching the
    /// block-forever semantics of a disabled timeout.
    pub read_timeout_ms: u64,
    /// Shared-secret HELLO auth token. `None` accepts every producer (the
    /// pre-auth wire behavior); `Some(token)` rejects any HELLO whose auth
    /// digest does not match with `ABORT_AUTH` before a single batch byte
    /// is interpreted.
    pub auth_token: Option<String>,
    /// The wire listener acks every `ack_every`-th sequenced batch with a
    /// cumulative `BATCH_ACK` (clamped to ≥ 1). Smaller values shrink the
    /// producer's replay ring (less to re-send after a fault); larger
    /// values cut ack traffic on the return path.
    pub ack_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 2,
            batch: 1024,
            retain: 4,
            read_timeout_ms: 0,
            auth_token: None,
            ack_every: 32,
        }
    }
}

impl ServerConfig {
    /// Sets the shard count (clamped to ≥ 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Does nothing: the server has no queues any more, since callers
    /// absorb their own batches. Kept only because the `perfbench`
    /// workloads still call it; it goes once they stop.
    pub fn queue_depth(self, _depth: usize) -> Self {
        self
    }

    /// Sets the reports-per-batch size, which is also the largest wire
    /// frame the listener accepts (clamped to ≥ 1).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Sets how many closed epoch snapshots the ring retains (clamped to
    /// ≥ 1 — the current epoch's predecessor is always queryable).
    pub fn retain(mut self, retain: usize) -> Self {
        self.retain = retain.max(1);
        self
    }

    /// Sets the wire listener's socket read timeout in milliseconds
    /// (`0` disables it).
    pub fn read_timeout_ms(mut self, ms: u64) -> Self {
        self.read_timeout_ms = ms;
        self
    }

    /// Sets the shared-secret HELLO auth token (`None` disables auth).
    pub fn auth_token(mut self, token: Option<String>) -> Self {
        self.auth_token = token;
        self
    }

    /// Sets the cumulative-ack interval in batches (clamped to ≥ 1).
    pub fn ack_every(mut self, every: u64) -> Self {
        self.ack_every = every.max(1);
        self
    }

    /// The read timeout as a duration; `None` when it is disabled.
    pub(crate) fn read_timeout(&self) -> Option<Duration> {
        (self.read_timeout_ms > 0).then(|| Duration::from_millis(self.read_timeout_ms))
    }

    /// The configuration with every field clamped to its valid range.
    pub(crate) fn sanitized(&self) -> ServerConfig {
        ServerConfig {
            shards: self.shards.max(1),
            batch: self.batch.max(1),
            retain: self.retain.max(1),
            read_timeout_ms: self.read_timeout_ms,
            auth_token: self.auth_token.clone(),
            ack_every: self.ack_every.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp_to_valid_ranges() {
        let cfg = ServerConfig::default()
            .shards(0)
            .batch(0)
            .retain(0)
            .read_timeout_ms(250)
            .auth_token(Some("secret".into()))
            .ack_every(0);
        assert_eq!(cfg.shards, 1);
        assert_eq!(cfg.batch, 1);
        assert_eq!(cfg.retain, 1);
        assert_eq!(cfg.read_timeout_ms, 250);
        assert_eq!(cfg.auth_token.as_deref(), Some("secret"));
        assert_eq!(cfg.ack_every, 1);
    }

    #[test]
    fn sanitized_never_returns_zero_fields() {
        let cfg = ServerConfig {
            shards: 0,
            batch: 0,
            retain: 0,
            read_timeout_ms: 0,
            auth_token: None,
            ack_every: 0,
        }
        .sanitized();
        assert!(cfg.shards >= 1 && cfg.batch >= 1 && cfg.retain >= 1);
        assert!(cfg.ack_every >= 1);
    }
}
