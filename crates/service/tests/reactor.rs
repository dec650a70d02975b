//! Hostile-edge tests for the epoll reactor: slow, greedy, and absent
//! clients must each be contained without disturbing anyone else.
//!
//! The happy paths (digest parity, typed errors, busy replies) live in
//! `service_e2e.rs`; this suite pokes at the readiness machinery itself
//! — slowloris drip-feeding, idle reaping, write backpressure against a
//! non-reading client, and reply ordering under pipelining.
//!
//! The ordering and drain cases run twice: against a server, and
//! against a `Router` in front of one (the `router_front_*` tests),
//! since both serve on the same reactor. The framing refusals run only
//! behind the router; the server's own are unit tests in `server.rs`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use chop_service::net::MAX_LINE_BYTES;
use chop_service::{
    BackendSpec, ErrorKind, ExploreParams, HashRing, OpenParams, Request, Response, Router,
    RouterConfig, ServeConfig, Server,
};

/// The five-node running example (mul feeding an add chain).
const SPEC: &str = "a = input 16\nb = input 16\np = mul a b\ns = add p a\ny = output s\n";

fn test_jobs() -> usize {
    std::env::var("CHOP_TEST_JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

fn start_server(config: ServeConfig) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run().expect("server drains cleanly"));
    (addr, handle)
}

/// Who the test clients talk to.
#[derive(Clone, Copy)]
enum Front {
    Server,
    /// A one-pair `Router` forwarding to an in-process server.
    Router,
}

/// Starts a server, behind a router for [`Front::Router`]. Returns the
/// address clients dial and a thread that ends once the front drained:
/// a wire `shutdown` stops only the router, so that thread then drains
/// the server behind it too.
fn start_front(
    front: Front,
    config: ServeConfig,
) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let (server_addr, server) = start_server(config);
    if let Front::Server = front {
        return (server_addr, server);
    }
    let pair = BackendSpec { primary: server_addr.to_string(), standby: None };
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig { pairs: vec![pair], ..RouterConfig::default() },
    )
    .expect("bind router");
    let addr = router.local_addr().expect("router addr");
    let handle = thread::spawn(move || {
        router.run().expect("router drains cleanly");
        shutdown_via_fresh_conn(server_addr);
        server.join().expect("server thread");
    });
    (addr, handle)
}

fn open_params(spec: &str, partitions: u32) -> OpenParams {
    OpenParams { spec: spec.into(), partitions, ..OpenParams::default() }
}

fn encode_line(request: &Request) -> Vec<u8> {
    let mut line = request.encode();
    line.push('\n');
    line.into_bytes()
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("read reply") > 0, "unexpected EOF");
    Response::decode(line.trim()).expect("decodable reply")
}

fn shutdown_via_fresh_conn(addr: std::net::SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(&encode_line(&Request::Shutdown)).expect("send shutdown");
    assert_eq!(read_response(&mut reader), Response::ShuttingDown);
}

#[test]
fn slowloris_byte_drip_does_not_starve_other_connections() {
    let (addr, server) =
        start_server(ServeConfig { workers: 1, jobs: test_jobs(), ..ServeConfig::default() });

    // The slowloris: one ping delivered a byte at a time, ~2 s end to
    // end. A thread-per-connection server shrugs this off; a naive
    // single-threaded loop would serve nobody else until the newline.
    let drip = {
        let line = encode_line(&Request::Ping);
        let pause = Duration::from_millis(2_000 / line.len() as u64);
        thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("slow connect");
            for byte in line {
                stream.write_all(&[byte]).expect("drip one byte");
                stream.flush().expect("flush");
                thread::sleep(pause);
            }
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("slow reply");
            assert!(
                matches!(Response::decode(reply.trim()), Ok(Response::Pong { .. })),
                "the slow client still deserves its pong: {reply:?}"
            );
        })
    };

    // Meanwhile a normal client hammers pings; every one must complete
    // promptly even though the reactor is "mid-request" on the dripper.
    let mut stream = TcpStream::connect(addr).expect("fast connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut worst = Duration::ZERO;
    for _ in 0..100 {
        let started = Instant::now();
        stream.write_all(&encode_line(&Request::Ping)).expect("fast ping");
        assert!(matches!(read_response(&mut reader), Response::Pong { .. }));
        worst = worst.max(started.elapsed());
    }
    assert!(
        worst < Duration::from_millis(500),
        "a fast ping stalled {worst:?} behind a slowloris"
    );

    drip.join().expect("slow client");
    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}

#[test]
fn idle_connection_gets_typed_error_then_close_while_active_one_survives() {
    let (addr, server) = start_server(ServeConfig {
        workers: 1,
        jobs: test_jobs(),
        idle_timeout_ms: 300,
        ..ServeConfig::default()
    });

    // A steadily-active connection must outlive many timeout windows:
    // every completed request resets its idle clock. Keep it pinging
    // from a thread for the whole test so it is genuinely active while
    // the idle victim gets reaped.
    let stop = Arc::new(AtomicBool::new(false));
    let keepalive = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut active = TcpStream::connect(addr).expect("active connect");
            let mut reader = BufReader::new(active.try_clone().expect("clone"));
            let mut pongs = 0usize;
            while !stop.load(Ordering::SeqCst) {
                active.write_all(&encode_line(&Request::Ping)).expect("keepalive ping");
                assert!(matches!(read_response(&mut reader), Response::Pong { .. }));
                pongs += 1;
                thread::sleep(Duration::from_millis(100));
            }
            pongs
        })
    };

    // An idle one is reaped: one typed protocol error, then EOF — never
    // a silent vanish.
    let idle = TcpStream::connect(addr).expect("idle connect");
    idle.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let mut idle_reader = BufReader::new(idle);
    let mut line = String::new();
    idle_reader.read_line(&mut line).expect("reap notice");
    let decoded = Response::decode(line.trim()).expect("decodable reap notice");
    let Response::Error(e) = decoded else { panic!("expected error, got {decoded:?}") };
    assert_eq!(e.kind, ErrorKind::Protocol);
    assert!(e.message.contains("idle timeout"), "{}", e.message);
    line.clear();
    assert_eq!(idle_reader.read_line(&mut line).expect("eof"), 0, "must close after notice");

    // The keepalive connection survived well past the 300 ms window.
    thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::SeqCst);
    let pongs = keepalive.join().expect("keepalive thread");
    assert!(pongs >= 5, "keepalive only got {pongs} pongs before the reap finished");

    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}

#[test]
fn non_reading_client_is_backpressured_not_buffered_without_bound() {
    let (addr, server) =
        start_server(ServeConfig { workers: 1, jobs: test_jobs(), ..ServeConfig::default() });

    // 1M pipelined pings (~22 MiB of requests → ~34 MiB of replies) at
    // a client that refuses to read, with an indexed `open` every 50k
    // requests as an ordering marker. The reactor queues replies up to
    // its soft cap and then *stops reading*: pending output is bounded
    // by cap + kernel socket buffers (loopback autotuning tops out
    // around 10 MiB end to end) and the writer stalls well short of the
    // total, instead of the server buffering everything.
    const TOTAL: usize = 1_000_000;
    const MARKER_EVERY: usize = 50_000;
    let ping = encode_line(&Request::Ping);
    let mut burst: Vec<u8> = Vec::new();
    for i in 0..TOTAL {
        if i % MARKER_EVERY == 0 {
            burst.extend(encode_line(&Request::Open {
                session: format!("marker-{:02}", i / MARKER_EVERY),
                params: open_params(SPEC, 1),
            }));
        } else {
            burst.extend_from_slice(&ping);
        }
    }
    let total_bytes = burst.len();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let written = Arc::new(AtomicUsize::new(0));
    let writer_done = Arc::new(AtomicBool::new(false));
    let write_thread = {
        let written = Arc::clone(&written);
        let writer_done = Arc::clone(&writer_done);
        thread::spawn(move || {
            for chunk in burst.chunks(64 * 1024) {
                writer.write_all(chunk).expect("write burst chunk");
                written.fetch_add(chunk.len(), Ordering::SeqCst);
            }
            writer.flush().expect("flush");
            writer_done.store(true, Ordering::SeqCst);
        })
    };

    // Give the writer ample time: an unbounded server would swallow all
    // ~5.5 MiB in well under a second; a bounded one strands most of it
    // in the client thread.
    thread::sleep(Duration::from_millis(1500));
    let stalled_at = written.load(Ordering::SeqCst);
    assert!(
        !writer_done.load(Ordering::SeqCst) && stalled_at < total_bytes,
        "writer should be stalled by backpressure ({stalled_at}/{total_bytes} bytes written)"
    );

    // Start consuming: every reply arrives, in request order (markers
    // land exactly where they were sent), and the writer unwedges as
    // the queue drains.
    let mut reader = BufReader::new(stream);
    for i in 0..TOTAL {
        let reply = read_response(&mut reader);
        if i % MARKER_EVERY == 0 {
            let Response::Opened { session, .. } = reply else {
                panic!("marker {i} got {reply:?}");
            };
            assert_eq!(session, format!("marker-{:02}", i / MARKER_EVERY));
        } else {
            assert!(matches!(reply, Response::Pong { .. }), "reply {i}: {reply:?}");
        }
    }
    write_thread.join().expect("writer thread");
    assert_eq!(written.load(Ordering::SeqCst), total_bytes);

    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}

#[test]
fn pipelined_mix_of_inline_and_dispatched_requests_answers_in_order() {
    pipelined_mix_answers_in_order(Front::Server);
}

#[test]
fn router_front_pipelined_mix_answers_in_order() {
    pipelined_mix_answers_in_order(Front::Router);
}

fn pipelined_mix_answers_in_order(front: Front) {
    let (addr, server) = start_front(
        front,
        ServeConfig { workers: 2, jobs: test_jobs(), ..ServeConfig::default() },
    );

    // One syscall carrying open + explore + ping + explore + garbage +
    // ping: the explores park the connection in the worker pool
    // mid-pipeline (on a router, every forwarded request does), and the
    // requests behind them — including the malformed line, which is
    // answered inline — must not jump the queue.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let explore = Request::Explore { session: "pipe".into(), params: ExploreParams::default() };
    let mut burst = Vec::new();
    burst.extend(encode_line(&Request::Open {
        session: "pipe".into(),
        params: open_params(SPEC, 1),
    }));
    burst.extend(encode_line(&explore));
    burst.extend(encode_line(&Request::Ping));
    burst.extend(encode_line(&explore));
    burst.extend(b"this is not json\n");
    burst.extend(encode_line(&Request::Ping));
    stream.write_all(&burst).expect("pipelined burst");

    assert!(matches!(read_response(&mut reader), Response::Opened { .. }));
    let first = read_response(&mut reader);
    let Response::Explored { run: first_run, .. } = first else { panic!("{first:?}") };
    assert!(matches!(read_response(&mut reader), Response::Pong { .. }));
    let second = read_response(&mut reader);
    let Response::Explored { run: second_run, .. } = second else { panic!("{second:?}") };
    let garbage = read_response(&mut reader);
    let Response::Error(e) = garbage else { panic!("{garbage:?}") };
    assert_eq!(e.kind, ErrorKind::Protocol);
    assert!(matches!(read_response(&mut reader), Response::Pong { .. }));
    assert_eq!(first_run.digest, second_run.digest, "explores are deterministic");

    stream.write_all(&encode_line(&Request::Shutdown)).expect("shutdown");
    assert_eq!(read_response(&mut reader), Response::ShuttingDown);
    server.join().expect("server thread");
}

#[test]
fn router_front_oversized_line_gets_protocol_error_then_close() {
    let (addr, server) = start_front(
        Front::Router,
        ServeConfig { workers: 1, jobs: test_jobs(), ..ServeConfig::default() },
    );

    // Just past the limit with no newline, and past it *with* one: both
    // get one typed protocol error and a close, and neither is parsed.
    for terminated in [false, true] {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut blob = vec![b' '; MAX_LINE_BYTES + 1];
        if terminated {
            blob.push(b'\n');
        }
        writer.write_all(&blob).expect("oversized line");
        let reply = read_response(&mut reader);
        let Response::Error(e) = reply else { panic!("{reply:?}") };
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("exceeds"), "{}", e.message);
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).expect("eof"), 0, "must close after refusal");
    }

    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}

#[test]
fn router_front_truncated_request_at_eof_gets_protocol_error() {
    let (addr, server) = start_front(
        Front::Router,
        ServeConfig { workers: 1, jobs: test_jobs(), ..ServeConfig::default() },
    );

    // Half a request, then a half-close: a typed error names what got
    // lost instead of a silent close.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(b"{\"v\":1,\"type\":\"pi").expect("half a request");
    writer.shutdown(std::net::Shutdown::Write).expect("half-close");
    let reply = read_response(&mut reader);
    let Response::Error(e) = reply else { panic!("{reply:?}") };
    assert_eq!(e.kind, ErrorKind::Protocol);
    assert!(e.message.contains("truncated"), "{}", e.message);

    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}

#[test]
fn wire_shutdown_drains_promptly_despite_an_idle_client() {
    shutdown_with_idle_client(Front::Server);
}

#[test]
fn router_front_wire_shutdown_drains_promptly_despite_an_idle_client() {
    shutdown_with_idle_client(Front::Router);
}

fn shutdown_with_idle_client(front: Front) {
    let (addr, server) = start_front(
        front,
        ServeConfig { workers: 1, jobs: test_jobs(), ..ServeConfig::default() },
    );

    // A connected client that never sends anything must not hold the
    // drain open: it is closed, and `run` returns.
    let idle = TcpStream::connect(addr).expect("idle connect");
    idle.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let mut idle_reader = BufReader::new(idle);
    shutdown_via_fresh_conn(addr);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !server.is_finished() {
        assert!(Instant::now() < deadline, "an idle client held the drain open");
        thread::sleep(Duration::from_millis(10));
    }
    server.join().expect("server thread");
    let mut line = String::new();
    assert_eq!(idle_reader.read_line(&mut line).expect("eof"), 0, "idle client must be closed");
}

#[test]
fn router_front_redials_backend_connections_the_server_reaped() {
    // The router keeps backend connections between requests. Once the
    // server has reaped one for idleness (typed error, then close), the
    // router must dial afresh instead of reading that stale notice as
    // the reply — or failing the pair over.
    let (addr, server) = start_front(
        Front::Router,
        ServeConfig {
            workers: 1,
            jobs: test_jobs(),
            idle_timeout_ms: 100,
            ..ServeConfig::default()
        },
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for _ in 0..3 {
        stream.write_all(&encode_line(&Request::Ping)).expect("ping");
        let reply = read_response(&mut reader);
        assert!(matches!(reply, Response::Pong { .. }), "{reply:?}");
        thread::sleep(Duration::from_millis(400));
    }
    stream.write_all(&encode_line(&Request::Shutdown)).expect("shutdown");
    assert_eq!(read_response(&mut reader), Response::ShuttingDown);
    server.join().expect("server thread");
}

#[test]
fn router_front_hung_pair_stalls_only_its_own_sessions() {
    let (server_addr, server) =
        start_server(ServeConfig { workers: 1, jobs: test_jobs(), ..ServeConfig::default() });

    // A "backend" that accepts connections and never replies. Bind until
    // the ring (64 vnodes per pair, as in the router) puts the empty
    // routing key — `ping`'s — on the live server's pair.
    let (hole, ring) = loop {
        let hole = TcpListener::bind("127.0.0.1:0").expect("bind hole");
        let labels =
            vec![server_addr.to_string(), hole.local_addr().expect("addr").to_string()];
        let ring = HashRing::new(labels, 64);
        if ring.assign("") == Some(0) {
            break (hole, ring);
        }
    };
    let hole_addr = hole.local_addr().expect("hole addr");
    let stuck_session = (0..)
        .map(|i| format!("s{i}"))
        .find(|s| ring.assign(s) == Some(1))
        .expect("a hole session");
    hole.set_nonblocking(true).expect("nonblocking hole");
    let accepted = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let hole_thread = {
        let (accepted, release) = (Arc::clone(&accepted), Arc::clone(&release));
        thread::spawn(move || {
            let mut held = Vec::new();
            while !release.load(Ordering::SeqCst) {
                match hole.accept() {
                    Ok((stream, _)) => {
                        held.push(stream);
                        accepted.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => thread::sleep(Duration::from_millis(5)),
                }
            }
        })
    };

    let pairs = [server_addr, hole_addr]
        .map(|a| BackendSpec { primary: a.to_string(), standby: None })
        .to_vec();
    // No health pings: only forwards may reach the hole.
    let config = RouterConfig { pairs, health_interval: Duration::from_secs(600) };
    let router = Router::bind("127.0.0.1:0", config).expect("bind router");
    let addr = router.local_addr().expect("router addr");
    let router = thread::spawn(move || router.run().expect("router drains cleanly"));

    // More hung requests than a default backend's explore cap, one per
    // connection: every worker that could serve the hole's pair is stuck.
    let cap = ServeConfig::default().max_inflight;
    let stats = Request::Stats { session: Some(stuck_session) };
    let mut stuck: Vec<TcpStream> = (0..cap + 8)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&encode_line(&stats)).expect("stuck request");
            stream
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while accepted.load(Ordering::SeqCst) < cap {
        assert!(Instant::now() < deadline, "only {accepted:?} forwards reached the hole");
        thread::sleep(Duration::from_millis(5));
    }

    // The other pair, and the router's own status, still answer.
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(&encode_line(&Request::Ping)).expect("ping");
    let reply = read_response(&mut reader);
    assert!(matches!(reply, Response::Pong { .. }), "{reply:?}");
    writer.write_all(&encode_line(&Request::RouterStatus)).expect("router_status");
    let reply = read_response(&mut reader);
    assert!(matches!(reply, Response::RouterStatus { .. }), "{reply:?}");

    // Once the hole hangs up, every stuck request gets a typed error.
    release.store(true, Ordering::SeqCst);
    hole_thread.join().expect("hole thread");
    for stream in &mut stuck {
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let reply = read_response(&mut BufReader::new(stream.try_clone().expect("clone")));
        let Response::Error(e) = reply else { panic!("{reply:?}") };
        assert_eq!(e.kind, ErrorKind::Internal, "{}", e.message);
    }
    writer.write_all(&encode_line(&Request::Shutdown)).expect("shutdown");
    assert_eq!(read_response(&mut reader), Response::ShuttingDown);
    router.join().expect("router thread");
    shutdown_via_fresh_conn(server_addr);
    server.join().expect("server thread");
}

#[test]
fn hundreds_of_concurrent_connections_are_all_served() {
    let (addr, server) =
        start_server(ServeConfig { workers: 1, jobs: test_jobs(), ..ServeConfig::default() });

    // 200 connections held open at once (kept modest for CI fd limits;
    // BENCH_serve.json exercises 1024). Each gets two pings with every
    // other connection still live in between.
    let mut conns: Vec<(TcpStream, BufReader<TcpStream>)> = (0..200)
        .map(|i| {
            let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("conn {i}: {e}"));
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            (stream, reader)
        })
        .collect();
    for round in 0..2 {
        for (i, (stream, reader)) in conns.iter_mut().enumerate() {
            stream.write_all(&encode_line(&Request::Ping)).expect("ping");
            assert!(
                matches!(read_response(reader), Response::Pong { .. }),
                "conn {i} round {round}"
            );
        }
    }
    drop(conns);

    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}

#[test]
fn connection_refused_over_the_cap_names_the_limit() {
    let (addr, server) = start_server(ServeConfig {
        workers: 1,
        jobs: test_jobs(),
        max_connections: 8,
        ..ServeConfig::default()
    });

    let held: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("held connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            stream.write_all(&encode_line(&Request::Ping)).expect("ping");
            assert!(matches!(read_response(&mut reader), Response::Pong { .. }));
            stream
        })
        .collect();

    let ninth = TcpStream::connect(addr).expect("ninth connect");
    ninth.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let mut reader = BufReader::new(ninth);
    let mut line = String::new();
    reader.read_line(&mut line).expect("refusal");
    let decoded = Response::decode(line.trim()).expect("decodable refusal");
    let Response::Error(e) = decoded else { panic!("expected error, got {decoded:?}") };
    assert!(e.message.contains("connection limit reached (8 connections)"), "{}", e.message);
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0);

    drop(held);
    // Slots free asynchronously; retry until readmitted.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut stream = TcpStream::connect(addr).expect("retry connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        stream.write_all(&encode_line(&Request::Ping)).expect("ping");
        if matches!(read_response(&mut reader), Response::Pong { .. }) {
            break;
        }
        assert!(Instant::now() < deadline, "never readmitted after slots freed");
        thread::sleep(Duration::from_millis(50));
    }

    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}

#[test]
fn half_close_after_full_request_still_gets_the_reply() {
    // A client that sends a complete request and immediately shuts down
    // its write side (common with `echo ... | nc`) must still receive
    // the reply before the server closes.
    let (addr, server) =
        start_server(ServeConfig { workers: 1, jobs: test_jobs(), ..ServeConfig::default() });

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(&encode_line(&Request::Ping)).expect("ping");
    writer.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply after half-close");
    assert!(matches!(Response::decode(reply.trim()), Ok(Response::Pong { .. })), "{reply:?}");
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).expect("eof"), 0, "clean close after reply");
    // The stream object must stay alive until here — dropping it earlier
    // would RST the connection instead of half-closing it.
    let mut sink = Vec::new();
    let _ = reader.into_inner().read_to_end(&mut sink);

    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}
