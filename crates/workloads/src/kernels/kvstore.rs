//! The **memcached** proxy: a sharded, thread-safe, in-memory key-value
//! store (optionally capacity-bounded with FIFO eviction per shard), plus
//! the request-side machinery (`get`/`set` with fixed-size values, as
//! `memslap` generates).

use super::KernelStats;
use parking_lot::RwLock;
use std::collections::{HashMap, VecDeque};

/// A sharded in-memory KV store.
///
/// Keys are hashed across `shards` independent `RwLock<HashMap>`s, the
/// standard recipe for scaling a cache across cores (memcached itself uses
/// a global lock per LRU + hash-bucket locks; sharding is the modern
/// equivalent).
/// ```
/// use enprop_workloads::kernels::kvstore::KvStore;
/// let kv = KvStore::new(8);
/// kv.set(b"user:42", b"{\"name\":\"ada\"}".to_vec());
/// assert!(kv.get(b"user:42").is_some());
/// assert!(kv.get(b"user:43").is_none());
/// ```
#[derive(Debug)]
pub struct KvStore {
    shards: Vec<RwLock<Shard>>,
    mask: usize,
    max_keys_per_shard: usize,
}

/// One shard: the hash table plus an insertion-order queue for eviction.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<Vec<u8>, Vec<u8>>,
    order: VecDeque<Vec<u8>>,
}

/// Result counters of a batch of operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// `get` hits.
    pub hits: u64,
    /// `get` misses.
    pub misses: u64,
    /// `set` operations.
    pub sets: u64,
    /// Total payload bytes moved (values read + written).
    pub bytes: u64,
}

impl KvStore {
    /// Create an unbounded store with `shards` rounded up to a power of two.
    pub fn new(shards: usize) -> Self {
        Self::with_capacity(shards, usize::MAX)
    }

    /// Create a store whose shards evict their oldest entry (FIFO, the
    /// lightweight cousin of memcached's LRU) once they hold
    /// `max_keys_per_shard` keys.
    pub fn with_capacity(shards: usize, max_keys_per_shard: usize) -> Self {
        assert!(max_keys_per_shard >= 1, "capacity must be at least one key");
        let n = shards.max(1).next_power_of_two();
        KvStore {
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            mask: n - 1,
            max_keys_per_shard,
        }
    }

    fn shard(&self, key: &[u8]) -> &RwLock<Shard> {
        // FNV-1a: fast, stable across platforms (no HashDoS concern for a
        // cache proxy whose keys we generate ourselves).
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        &self.shards[(h as usize) & self.mask]
    }

    /// Store a value, evicting the shard's oldest key when full.
    pub fn set(&self, key: &[u8], value: Vec<u8>) {
        let mut shard = self.shard(key).write();
        if shard.map.insert(key.to_vec(), value).is_none() {
            shard.order.push_back(key.to_vec());
            while shard.map.len() > self.max_keys_per_shard {
                if let Some(oldest) = shard.order.pop_front() {
                    shard.map.remove(&oldest);
                }
            }
        }
    }

    /// Fetch a value (cloned out, as a network server would serialize it).
    pub fn get(&self, key: &[u8]) -> std::option::Option<Vec<u8>> {
        self.shard(key).read().map.get(key).cloned()
    }

    /// Total number of stored keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Execute a memslap-style operation stream against a store.
///
/// `ops` come from [`crate::loadgen::MemslapGen`]; this is the server-side
/// work loop of the memcached workload.
pub fn execute(store: &KvStore, ops: &[crate::loadgen::Op]) -> OpCounts {
    let mut counts = OpCounts::default();
    for op in ops {
        match op {
            crate::loadgen::Op::Set { key, value_bytes } => {
                store.set(key, vec![0xAB; *value_bytes]);
                counts.sets += 1;
                counts.bytes += *value_bytes as u64;
            }
            crate::loadgen::Op::Get { key } => match store.get(key) {
                Some(v) => {
                    counts.hits += 1;
                    counts.bytes += v.len() as u64;
                }
                None => counts.misses += 1,
            },
        }
    }
    counts
}

/// Run a complete single-threaded memcached proxy workload: preload, then
/// execute a generated request stream. `ops` in the result are *bytes
/// served* (Table 6's memcached unit).
pub fn kernel(keys: usize, requests: usize, value_bytes: usize, seed: u64) -> KernelStats {
    let store = KvStore::new(16);
    let mut gen = crate::loadgen::MemslapGen::new(keys, value_bytes, 0.9, seed);
    for op in gen.preload() {
        if let crate::loadgen::Op::Set { key, value_bytes } = op {
            store.set(&key, vec![0xAB; value_bytes]);
        }
    }
    let stream: Vec<_> = (0..requests).map(|_| gen.next_op()).collect();
    let counts = execute(&store, &stream);
    KernelStats {
        // enprop-lint: allow(unit-assign) -- memcached's throughput unit is bytes served (paper Table 6): one op ≡ one byte for this kernel
        ops: counts.bytes,
        checksum: counts.hits as f64 + counts.sets as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn set_get_roundtrip() {
        let kv = KvStore::new(8);
        kv.set(b"alpha", b"one".to_vec());
        assert_eq!(kv.get(b"alpha"), Some(b"one".to_vec()));
        assert_eq!(kv.get(b"beta"), None);
    }

    #[test]
    fn overwrite_replaces_value() {
        let kv = KvStore::new(8);
        kv.set(b"k", b"v1".to_vec());
        kv.set(b"k", b"v2".to_vec());
        assert_eq!(kv.get(b"k"), Some(b"v2".to_vec()));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn shards_round_up_to_power_of_two() {
        assert_eq!(KvStore::new(5).shards.len(), 8);
        assert_eq!(KvStore::new(0).shards.len(), 1);
    }

    #[test]
    fn keys_spread_across_shards() {
        let kv = KvStore::new(16);
        for i in 0..4000u32 {
            kv.set(format!("key-{i}").as_bytes(), vec![0; 8]);
        }
        let sizes: Vec<usize> = kv.shards.iter().map(|s| s.read().map.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 4000);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(*min > 100, "badly unbalanced shards: {sizes:?}");
        assert!(*max < 600, "badly unbalanced shards: {sizes:?}");
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let kv = KvStore::new(16);
        (0..8000u32).into_par_iter().for_each(|i| {
            let key = format!("key-{}", i % 1000);
            kv.set(key.as_bytes(), i.to_le_bytes().to_vec());
        });
        assert_eq!(kv.len(), 1000);
        let hits: usize = (0..1000u32)
            .into_par_iter()
            .map(|i| kv.get(format!("key-{i}").as_bytes()).is_some() as usize)
            .sum();
        assert_eq!(hits, 1000);
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let kv = KvStore::with_capacity(1, 3);
        for i in 0..5u32 {
            kv.set(format!("k{i}").as_bytes(), vec![i as u8]);
        }
        assert_eq!(kv.len(), 3);
        // k0 and k1 were evicted; the three newest survive.
        assert!(kv.get(b"k0").is_none() && kv.get(b"k1").is_none());
        for i in 2..5u32 {
            assert!(kv.get(format!("k{i}").as_bytes()).is_some(), "k{i}");
        }
    }

    #[test]
    fn overwrites_do_not_consume_capacity() {
        let kv = KvStore::with_capacity(1, 2);
        for round in 0..10u8 {
            kv.set(b"hot", vec![round]);
        }
        kv.set(b"other", vec![1]);
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.get(b"hot"), Some(vec![9]));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = KvStore::with_capacity(1, 0);
    }

    #[test]
    fn kernel_serves_bytes_with_high_hit_rate() {
        let s = kernel(1000, 20_000, 1024, 7);
        // 90% gets on preloaded keys at 1 KiB each → ≥ 15 MB served.
        assert!(s.ops > 15_000_000, "bytes served {}", s.ops);
    }
}
