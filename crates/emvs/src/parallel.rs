//! Shard infrastructure of the [`VotingEngine`](crate::VotingEngine): the
//! shard-count configuration and the scoped worker-shard runner.
//!
//! The engine splits its one DSI into `min(shards, planes)` contiguous
//! depth-plane ranges
//! ([`DsiVolume::plane_ranges_mut`](eventor_dsi::DsiVolume::plane_ranges_mut))
//! and votes every range on its own worker — the `PE_Zi` array's plane
//! partition. Each voxel has exactly one writer, which sees its votes in
//! stream order, so the output is **bit-identical to the one-shard path for
//! every shard count and every datapath**, `f32` bilinear sums included.

use std::sync::OnceLock;

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
/// let p = ParallelConfig::with_shards(4);
/// assert_eq!(p.shards(), 4);
/// assert!(p.is_parallel());
/// assert!(!ParallelConfig::sequential().is_parallel());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    shards: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ParallelConfig {
    /// Single-shard configuration: the golden path, every vote window
    /// voted on the calling thread.
    pub fn sequential() -> Self {
        Self { shards: 1 }
    }

    /// One shard per available hardware thread.
    pub fn auto() -> Self {
        Self::with_shards(available_threads())
    }

    /// A fixed shard count (clamped to at least 1). A single shard is
    /// [`ParallelConfig::sequential`].
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
        }
    }

    /// Number of worker shards: the number of plane ranges the DSI is split
    /// into (at most one per depth plane).
    ///
    /// The output never depends on this count. How many OS threads actually
    /// execute the shards is a separate, host-dependent cap:
    /// [`Self::worker_threads`].
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of OS worker threads the engine uses to execute the shards:
    /// `min(shards, available hardware threads)`.
    ///
    /// Oversubscribing a CPU-bound vote kernel has no concurrency gain, so a
    /// 2-core host executes an 8-shard partition on 2 threads (each thread
    /// votes a contiguous block of plane ranges).
    pub fn worker_threads(&self) -> usize {
        self.shards.min(available_threads())
    }

    /// Whether the work partition has more than one shard.
    pub fn is_parallel(&self) -> bool {
        self.shards > 1
    }
}

/// The host's hardware thread count, read once per process: on Linux the
/// query reads cgroup files, and the engine and the serve pump ask for it
/// on every [`run_sharded`] call.
fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `work` on every job, on at most `min(jobs, available hardware
/// threads)` scoped worker threads; with more jobs than threads, each
/// thread processes a contiguous block of jobs.
///
/// The single-thread case runs inline on the caller's thread (no spawn, no
/// allocation), so an N-shard partition is fully exercised on a 1-core
/// host, just without concurrency. Each worker owns its jobs exclusively
/// for the duration of the call, so the closure needs no synchronisation;
/// determinism follows from the caller's fixed job partition, not from
/// scheduling.
pub fn run_sharded<I, F>(jobs: I, work: F)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    F: Fn(I::Item) + Sync,
{
    let mut jobs = jobs.into_iter();
    let threads = jobs.len().min(available_threads());
    if threads <= 1 {
        jobs.for_each(work);
        return;
    }
    let block = jobs.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let work = &work;
        while jobs.len() > 0 {
            let chunk: Vec<I::Item> = jobs.by_ref().take(block).collect();
            scope.spawn(move || chunk.into_iter().for_each(work));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_and_reports() {
        assert_eq!(ParallelConfig::with_shards(0).shards(), 1);
        assert!(ParallelConfig::auto().shards() >= 1);
        assert_eq!(ParallelConfig::default(), ParallelConfig::sequential());
        // One shard is the sequential configuration however it is spelled.
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
        let mut jobs = vec![0u64; 8];
        run_sharded(jobs.iter_mut().enumerate(), |(i, t)| *t = i as u64 + 1);
        assert_eq!(jobs, (1..=8).collect::<Vec<_>>());
        let mut single = vec![0u64];
        run_sharded(&mut single, |t| *t = 7);
        assert_eq!(single, vec![7]);
        run_sharded(Vec::<u64>::new(), |_| unreachable!());
    }
}
