//! Shard infrastructure of the [`VotingEngine`](crate::VotingEngine): the
//! shard-count/packet-size configuration and the scoped worker-shard runner.
//!
//! At one shard the engine votes every frame inline and none of this runs.
//! Above one shard (key-frame segmentation itself is performed live by the
//! session driver's key-frame selector, whatever the shard count):
//!
//! 1. **Vote** — split each key frame's event frames into
//!    [`VotePacket`]s (`crates/events`) and
//!    distribute the packets round-robin over `shards` worker threads. Each
//!    worker votes into its own private DSI tile, so the hot loop is
//!    lock-free and allocation-free.
//! 2. **Reduce** — merge the per-shard tiles with the fixed-shape binary tree
//!    reduction of [`DsiVolume::tree_reduce`](eventor_dsi::DsiVolume::tree_reduce),
//!    whose result depends only on the shard count, never on thread timing.
//!
//! For integer (`u16`) DSI scores and unit votes the merged volume is
//! **bit-identical to the one-shard path for every shard count**, because
//! saturating unit-vote accumulation is order-independent — and every
//! quantized vote address is computed by the same integer kernel
//! (`eventor_fixed::kernel`) on the same hoisted raw words whichever
//! schedule runs the packet, so there is no arithmetic left to diverge, only
//! scheduling. For `f32` scores, nearest voting (whole `1.0` increments,
//! exact in `f32`) is also bit-identical; bilinear voting deposits
//! fractional weights whose final float rounding can differ from the
//! one-shard summation order by a few ULPs — still deterministic for a
//! fixed shard count.

use eventor_events::VotePacket;

/// Degree of parallelism of the voting engine.
///
/// The default is [`ParallelConfig::sequential`], the single-threaded golden
/// path; [`ParallelConfig::auto`] spreads work over the machine's available
/// cores.
///
/// # Examples
///
/// ```
/// use eventor_emvs::ParallelConfig;
/// let p = ParallelConfig::with_shards(4).with_packet_events(512);
/// assert_eq!(p.shards(), 4);
/// assert_eq!(p.packet_events(), 512);
/// assert!(p.is_parallel());
/// assert!(!ParallelConfig::sequential().is_parallel());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    shards: usize,
    packet_events: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ParallelConfig {
    /// Single-shard configuration: the golden path, every frame voted
    /// inline on the calling thread.
    pub fn sequential() -> Self {
        Self {
            shards: 1,
            packet_events: eventor_events::DEFAULT_PACKET_EVENTS,
        }
    }

    /// One shard per available hardware thread.
    pub fn auto() -> Self {
        let shards = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_shards(shards)
    }

    /// A fixed shard count (clamped to at least 1). A single shard is
    /// [`ParallelConfig::sequential`].
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            ..Self::sequential()
        }
    }

    /// Overrides the packet size (clamped to at least 1 event per packet).
    pub fn with_packet_events(mut self, packet_events: usize) -> Self {
        self.packet_events = packet_events.max(1);
        self
    }

    /// Number of worker shards: the size of the work partition (tiles,
    /// packet assignment, reduction shape).
    ///
    /// The partition is a pure function of this count — it never depends on
    /// the host — so results are reproducible across machines for a fixed
    /// configuration. How many OS threads actually execute the shards is a
    /// separate, host-dependent cap: [`Self::worker_threads`].
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of OS worker threads the engine uses to execute the shards:
    /// `min(shards, available hardware threads)`.
    ///
    /// Oversubscribing a CPU-bound vote kernel has no concurrency gain, so a
    /// 2-core host executes an 8-shard partition on 2 threads (each thread
    /// processes a contiguous block of shard tiles). The cap affects *only*
    /// scheduling — the partition, and therefore the output, is unchanged.
    pub fn worker_threads(&self) -> usize {
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.shards.min(available).max(1)
    }

    /// Events per vote packet (used above one shard).
    pub fn packet_events(&self) -> usize {
        self.packet_events
    }

    /// Whether the work partition has more than one shard.
    pub fn is_parallel(&self) -> bool {
        self.shards > 1
    }
}

/// Round-robin packet-to-shard assignment: the packets shard `shard` owns
/// out of `packets`, in sequential-schedule order. This single function is
/// the engine's load-balancing rule, and the one the bit-identity argument
/// fixes: packet `p` goes to shard `p mod shards`, independent of thread
/// timing.
#[inline]
pub fn shard_packets(
    packets: &[VotePacket],
    shard: usize,
    shards: usize,
) -> impl Iterator<Item = &VotePacket> {
    packets.iter().skip(shard).step_by(shards.max(1))
}

/// Runs `work(shard_index, &mut tiles[shard_index])` for every shard, on at
/// most `min(tiles.len(), available hardware threads)` scoped worker
/// threads; with more tiles than threads, each thread processes a contiguous
/// block of tiles.
///
/// The single-thread case runs inline on the caller's thread (no spawn), so
/// an N-shard partition is fully exercised on a 1-core host, just without
/// concurrency. Each worker owns its tiles exclusively for the duration of
/// the call, so the closure needs no synchronisation; determinism follows
/// from the fixed packet-to-shard assignment chosen by the caller, not from
/// scheduling.
pub fn run_sharded<T, F>(tiles: &mut [T], work: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = tiles.len().min(available);
    if threads <= 1 {
        for (index, tile) in tiles.iter_mut().enumerate() {
            work(index, tile);
        }
        return;
    }
    let block = tiles.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (chunk_index, chunk) in tiles.chunks_mut(block).enumerate() {
            let work = &work;
            scope.spawn(move || {
                for (offset, tile) in chunk.iter_mut().enumerate() {
                    work(chunk_index * block + offset, tile);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_and_reports() {
        assert_eq!(ParallelConfig::with_shards(0).shards(), 1);
        assert_eq!(
            ParallelConfig::sequential()
                .with_packet_events(0)
                .packet_events(),
            1
        );
        assert!(ParallelConfig::auto().shards() >= 1);
        assert_eq!(ParallelConfig::default(), ParallelConfig::sequential());
        // One shard is the inline path however it is spelled; more than one
        // is the sharded schedule.
        assert_eq!(ParallelConfig::with_shards(1), ParallelConfig::sequential());
        assert!(!ParallelConfig::sequential().is_parallel());
        assert!(ParallelConfig::with_shards(2).is_parallel());
        // The partition is never clamped — only the thread count is.
        assert_eq!(ParallelConfig::with_shards(64).shards(), 64);
        let threads = ParallelConfig::with_shards(64).worker_threads();
        assert!((1..=64).contains(&threads));
    }

    #[test]
    fn run_sharded_executes_every_shard_once() {
        let mut tiles = vec![0u64; 8];
        run_sharded(&mut tiles, |i, t| *t = i as u64 + 1);
        assert_eq!(tiles, (1..=8).collect::<Vec<_>>());
        let mut single = vec![0u64];
        run_sharded(&mut single, |_, t| *t = 7);
        assert_eq!(single, vec![7]);
        run_sharded::<u64, _>(&mut [], |_, _| unreachable!());
    }
}
