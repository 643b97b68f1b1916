//! Thread accounting for the serving stack: a `Server` runs no thread of
//! its own (its deadline flushes run on the waiting thread), and a served
//! connection runs exactly one thread, its reader. A test binary of its
//! own, so that no other test's servers or connections are counted.

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
    let threads_named = |name: &str| {
        // The kernel keeps the first 15 bytes of a thread's name.
        let name = &name[..name.len().min(15)];
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter(|task| {
                let comm = task.as_ref().unwrap().path().join("comm");
                std::fs::read_to_string(comm).is_ok_and(|comm| comm.trim_end() == name)
            })
            .count()
    };
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
