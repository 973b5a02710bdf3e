//! Charged-access regressions: the IOPS permit must cover only *device*
//! time, never network time.
//!
//! A remote probe or read spends `remote - local` of its latency on the
//! wire. Holding the owner's admission permit through that sleep would
//! mean one slow remote reader occupies a disk-queue slot for the whole
//! RTT and falsely throttles the owner's local readers — with
//! `queue_depth = 1` a single remote access would serialize the entire
//! node for hundreds of device-times.
//!
//! A batched device group takes one permit per access, as many as the
//! device has free, and pays its device time in queue-depth rounds: the
//! same cost and the same permit-seconds as its accesses issued as
//! scalars at once.

use rede_common::{IoScope, Value};
use rede_storage::{
    FileSpec, IndexEntry, IndexSpec, IoModel, Partitioning, Pointer, Record, SimCluster,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A two-node cluster whose I/O model has a tiny device time and a huge
/// RTT, with a per-node queue depth of one.
fn tight_queue_cluster() -> SimCluster {
    let io = IoModel {
        local_point_read: Duration::from_millis(1),
        remote_point_read: Duration::from_millis(401), // RTT = 400ms
        scan_per_record: Duration::ZERO,
        index_lookup: Duration::from_millis(1),
        page_fault: Duration::ZERO,
        wal_fsync: Duration::ZERO,
        scan_batch: 1024,
        queue_depth: 1,
    };
    SimCluster::builder().nodes(2).io_model(io).build().unwrap()
}

#[test]
fn remote_index_probe_does_not_hold_the_permit_through_the_rtt() {
    let c = tight_queue_cluster();
    c.create_file(FileSpec::new("base", Partitioning::hash(2)))
        .unwrap();
    let ix = c.create_index(IndexSpec::global("ix", "base", 2)).unwrap();
    let key = Value::Int(7);
    ix.insert(
        key.clone(),
        IndexEntry::new(key.clone(), key.clone()).to_record(),
    )
    .unwrap();
    let partition = ix.raw().probe_partitions_for_key(&key)[0];
    let owner = c.node_of_partition(partition);
    let remote_node = (owner + 1) % c.nodes();

    std::thread::scope(|s| {
        let (c_remote, ix_remote, key_remote) = (c.clone(), ix.clone(), key.clone());
        let remote = s.spawn(move || {
            let t = Instant::now();
            let hits = ix_remote.lookup(&key_remote, remote_node).unwrap();
            assert_eq!(hits.len(), 1);
            drop(c_remote);
            t.elapsed()
        });
        // Let the remote probe pass its 1ms device slot and enter the
        // 400ms RTT sleep, then probe locally against the same owner.
        std::thread::sleep(Duration::from_millis(100));
        let t = Instant::now();
        let hits = ix.lookup(&key, owner).unwrap();
        let local_elapsed = t.elapsed();
        assert_eq!(hits.len(), 1);
        let remote_elapsed = remote.join().unwrap();
        assert!(
            remote_elapsed >= Duration::from_millis(400),
            "remote probe must still pay the full RTT, took {remote_elapsed:?}"
        );
        assert!(
            local_elapsed < Duration::from_millis(200),
            "local probe waited on a permit held through the RTT: {local_elapsed:?}"
        );
    });
}

#[test]
fn remote_point_read_does_not_hold_the_permit_through_the_rtt() {
    let c = tight_queue_cluster();
    let f = c
        .create_file(FileSpec::new("t", Partitioning::hash(2)))
        .unwrap();
    for i in 0..16i64 {
        f.insert(Value::Int(i), Record::from_text(&format!("r{i}")))
            .unwrap();
    }
    let key = Value::Int(3);
    let partition = f.partition_of(&key);
    let owner = c.node_of_partition(partition);
    let remote_node = (owner + 1) % c.nodes();
    let ptr = Pointer::logical("t", key.clone(), key);

    std::thread::scope(|s| {
        let (c_remote, ptr_remote) = (c.clone(), ptr.clone());
        let remote = s.spawn(move || {
            let t = Instant::now();
            c_remote.resolve(&ptr_remote, remote_node).unwrap();
            t.elapsed()
        });
        std::thread::sleep(Duration::from_millis(100));
        let t = Instant::now();
        c.resolve(&ptr, owner).unwrap();
        let local_elapsed = t.elapsed();
        let remote_elapsed = remote.join().unwrap();
        assert!(
            remote_elapsed >= Duration::from_millis(400),
            "remote read must still pay the full remote latency, took {remote_elapsed:?}"
        );
        assert!(
            local_elapsed < Duration::from_millis(200),
            "local read waited on a permit held through the RTT: {local_elapsed:?}"
        );
    });
}

/// A one-node cluster (every read local) on `hdd_like(10)` — 5 ms per
/// point read, so the scheduler's sleep floor is negligible — with the
/// given queue depth, holding a 64-row file `t`.
fn batch_cluster(queue_depth: usize) -> SimCluster {
    let io = IoModel {
        queue_depth,
        ..IoModel::hdd_like(10.0)
    };
    let c = SimCluster::builder().nodes(1).io_model(io).build().unwrap();
    let f = c
        .create_file(FileSpec::new("t", Partitioning::hash(4)))
        .unwrap();
    for i in 0..64i64 {
        f.insert(Value::Int(i), Record::from_text(&format!("r{i}")))
            .unwrap();
    }
    c
}

fn pointers(keys: std::ops::Range<i64>) -> Vec<Pointer> {
    keys.map(|k| Pointer::logical("t", Value::Int(k), Value::Int(k)))
        .collect()
}

/// Resolve `ptrs` as one batch from node 0, asserting every read succeeds.
fn resolve_all(c: &SimCluster, ptrs: &[Pointer]) {
    let refs: Vec<&Pointer> = ptrs.iter().collect();
    for result in c.resolve_batch(&refs, 0) {
        result.unwrap();
    }
}

#[test]
fn wide_device_serves_a_local_batch_in_one_round_under_one_permit_per_read() {
    const N: usize = 8;
    let c = batch_cluster(1008);
    let device = c.io_model().local_point_read;
    let scope = Arc::new(IoScope::new(1));
    let scoped = c.with_io_scope(scope.clone());
    let ptrs = pointers(0..N as i64);

    let (mut min_free, mut max_held) = (usize::MAX, 0i64);
    let elapsed = std::thread::scope(|s| {
        let batch = s.spawn(|| {
            let t = Instant::now();
            resolve_all(&scoped, &ptrs);
            t.elapsed()
        });
        while !batch.is_finished() {
            min_free = min_free.min(c.available_iops_permits()[0]);
            max_held = max_held.max(scope.permits_held());
            std::thread::yield_now();
        }
        batch.join().unwrap()
    });
    assert_eq!(
        min_free,
        1008 - N,
        "the batch must hold one permit per read"
    );
    assert_eq!(max_held, N as i64, "the scope must count every held permit");
    assert!(
        elapsed < device * 3,
        "{N} reads on a wide device took {elapsed:?} (device time {device:?})"
    );
    assert_eq!(c.available_iops_permits(), vec![1008]);
    assert_eq!(scope.permits_held(), 0);
    assert_eq!(c.metrics().snapshot().point_reads(), N as u64);
}

#[test]
fn narrow_device_serves_a_batch_in_queue_depth_rounds() {
    let c = batch_cluster(2);
    let device = c.io_model().local_point_read;
    let t = Instant::now();
    resolve_all(&c, &pointers(0..8));
    let elapsed = t.elapsed();
    assert!(
        elapsed >= device * 4,
        "8 reads on a 2-deep device need 4 rounds, took {elapsed:?}"
    );
    assert_eq!(c.available_iops_permits(), vec![2]);
}

#[test]
fn concurrent_batches_cannot_exceed_device_capacity() {
    const Q: usize = 4;
    const BATCHES: i64 = 4;
    const PER_BATCH: i64 = 6;
    let c = batch_cluster(Q);
    let device = c.io_model().local_point_read;
    let scope = Arc::new(IoScope::new(1));
    let scoped = c.with_io_scope(scope.clone());
    let t = Instant::now();
    std::thread::scope(|s| {
        for b in 0..BATCHES {
            let scoped = &scoped;
            s.spawn(move || {
                resolve_all(scoped, &pointers(b * PER_BATCH..(b + 1) * PER_BATCH));
            });
        }
    });
    let elapsed = t.elapsed();
    let reads = (BATCHES * PER_BATCH) as u32;
    // Every read holds one of Q permits for at least its device time.
    let floor = device * reads / Q as u32;
    assert!(
        elapsed >= floor,
        "{reads} reads at depth {Q} finished in {elapsed:?}, under the {floor:?} floor"
    );
    assert_eq!(c.available_iops_permits(), vec![Q]);
    assert_eq!(scope.permits_held(), 0);
    assert_eq!(c.metrics().snapshot().point_reads(), u64::from(reads));
}

#[test]
fn wide_device_serves_an_index_batch_in_one_round() {
    const N: i64 = 8;
    let c = batch_cluster(1008);
    let device = c.io_model().index_lookup;
    let ix = c.create_index(IndexSpec::global("ix", "t", 4)).unwrap();
    for k in 0..N {
        let key = Value::Int(k);
        ix.insert(
            key.clone(),
            IndexEntry::new(key.clone(), key.clone()).to_record(),
        )
        .unwrap();
    }
    let keys: Vec<Value> = (0..N).map(Value::Int).collect();
    let t = Instant::now();
    for hits in ix.lookup_batch(&keys, 0) {
        assert_eq!(hits.unwrap().len(), 1);
    }
    let elapsed = t.elapsed();
    // The index is global over 4 partitions, so its probes form one
    // device group; served in one round, never 8 back to back.
    assert!(
        elapsed < device * 3,
        "{N} probes on a wide device took {elapsed:?} (device time {device:?})"
    );
    assert_eq!(c.available_iops_permits(), vec![1008]);
    assert_eq!(c.metrics().snapshot().index_lookups, N as u64);
}
