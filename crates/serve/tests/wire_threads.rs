//! Thread accounting for the serving stack: a `Server` runs no thread of
//! its own (its deadline flushes run on the waiting thread), a
//! `ShardedSearcher` runs none either (the flushing thread searches every
//! shard), and a served connection runs exactly one thread, its reader.
//! A test binary of its own, so that no other test's servers or
//! connections are counted.

/// Threads of this process whose name starts with `prefix`. The kernel
/// keeps the first 15 bytes of a name.
#[cfg(target_os = "linux")]
fn threads_named(prefix: &str) -> usize {
    let prefix = &prefix[..prefix.len().min(15)];
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter(|task| {
            let comm = task.as_ref().unwrap().path().join("comm");
            std::fs::read_to_string(comm).is_ok_and(|comm| comm.starts_with(prefix))
        })
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn sharded_searchers_start_no_thread() {
    use hd_linalg::{BitVector, QueryBatch, SearchMemory};
    use hd_serve::{Searchable, ShardedSearcher};
    use std::sync::Arc;

    let rows: Vec<BitVector> = (0..64)
        .map(|r| BitVector::from_bools(&(0..128).map(|c| (r * 7 + c) % 5 < 2).collect::<Vec<_>>()))
        .collect();
    let memory = SearchMemory::from_rows(&rows).unwrap();
    let classes: Vec<usize> = (0..64).map(|r| r % 10).collect();
    let batch = Arc::new(QueryBatch::from_vectors(&rows[..16]).unwrap());
    let exact = ShardedSearcher::new(memory.clone(), classes.clone(), 4).unwrap();
    let tuned = ShardedSearcher::with_cascade_tuned(memory, classes, 2, &batch).unwrap();
    assert_eq!((exact.num_shards(), tuned.num_shards()), (4, 2));
    for searcher in [&exact, &tuned] {
        searcher.search_topk(Arc::clone(&batch), 5).unwrap();
        assert_eq!(threads_named("hd-serve-shard-"), 0, "no shard thread");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn each_connection_runs_one_thread() {
    use hd_linalg::{BitVector, SearchMemory};
    use hd_serve::net::{WireClient, WireConfig, WireServer};
    use hd_serve::{Searchable, ServeConfig, Server};
    use std::sync::Arc;

    let memory = SearchMemory::from_rows(&vec![BitVector::zeros(128); 4]).unwrap();
    let server = Arc::new(
        Server::start(Arc::new(memory) as Arc<dyn Searchable>, ServeConfig::default()).unwrap(),
    );
    let wire = WireServer::start(Arc::clone(&server), WireConfig::default()).unwrap();
    let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
    // `connect_tcp` returns once the HELLO handshake is answered, so each
    // connection's threads are running by then.
    let clients: Vec<WireClient> = (0..3).map(|_| WireClient::connect_tcp(addr).unwrap()).collect();
    assert_eq!(
        (threads_named("hd-wire-conn"), threads_named("hd-wire-write")),
        (3, 0),
        "one thread per connection"
    );
    assert_eq!(threads_named("hd-serve-flusher"), 0, "the server spawns no flusher");
    drop(clients);
    wire.shutdown();
    server.shutdown();
}
