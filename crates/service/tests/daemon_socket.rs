//! End-to-end daemon exercise over a real loopback socket: streaming
//! requests in, classified documents out, predictive admission, warm
//! cache generations, and the graceful drain — all through the same
//! byte path the CLI front ends use.

use cyclecover_service::{CalibrationRow, CertCache, CostModel, Daemon, DaemonConfig, DaemonStats};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

fn row(n: u32, nodes: u64, wall_ms: f64) -> CalibrationRow {
    CalibrationRow {
        n,
        objective: "find_optimal".to_string(),
        symmetry: "root".to_string(),
        memo: true,
        nodes,
        wall_ms,
    }
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read line");
    assert!(line.ends_with('\n'), "daemon lines are newline-terminated");
    line.trim_end().to_string()
}

fn spawn(config: DaemonConfig) -> (SocketAddr, JoinHandle<DaemonStats>) {
    let daemon = Daemon::bind("127.0.0.1:0".parse().unwrap(), config).expect("bind loopback");
    let addr = daemon.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || daemon.run()))
}

/// Sends the `shutdown` control; returns the drain's final stats document.
fn shut_down(w: &mut TcpStream, r: &mut BufReader<TcpStream>) -> DaemonStats {
    writeln!(
        w,
        r#"{{"format": "cyclecover-control", "version": 1, "op": "shutdown"}}"#
    )
    .expect("write shutdown control");
    DaemonStats::from_json(&read_line(r)).expect("final stats parse")
}

#[test]
fn daemon_round_trips_streams_predicts_and_drains() {
    let mut daemon = Daemon::bind("127.0.0.1:0".parse().unwrap(), DaemonConfig::default())
        .expect("bind loopback");
    // A deliberately lopsided model: n = 6 is cheap and exactly known,
    // n = 10 is exactly known to be hopeless — so a tight deadline on
    // n = 10 must be refused at admission, regardless of what the
    // committed calibration table says this week.
    daemon.set_cost_model(Some(CostModel::new(vec![
        row(6, 100, 0.05),
        row(10, u64::MAX / 2, 1e9),
    ])));
    let addr = daemon.local_addr().expect("local addr");
    let server = std::thread::spawn(move || daemon.run());

    // --- Connection 1: stream four lines, half-close, collect answers.
    let (mut w1, mut r1) = connect(addr);
    w1.write_all(
        concat!(
            r#"{"format": "cyclecover-request", "version": 1, "id": "a", "n": 6}"#,
            "\n",
            r#"{"format": "cyclecover-request", "version": 1, "id": "b", "n": 6}"#,
            "\n",
            "this is not json\n",
            r#"{"format": "cyclecover-request", "version": 1, "id": "doomed", "n": 10, "deadline_ms": 1}"#,
            "\n",
        )
        .as_bytes(),
    )
    .expect("write jobs");
    // Half-close: the daemon must keep the connection alive until the
    // in-flight jobs are answered, then close it.
    w1.shutdown(Shutdown::Write).expect("half-close");

    let mut docs = Vec::new();
    loop {
        let mut line = String::new();
        if r1.read_line(&mut line).expect("read") == 0 {
            break; // daemon reaped the drained connection
        }
        docs.push(line.trim_end().to_string());
    }
    assert_eq!(docs.len(), 4, "four lines in, four documents out: {docs:?}");

    let rejects: Vec<&String> = docs
        .iter()
        .filter(|d| d.contains("\"format\": \"cyclecover-reject\""))
        .collect();
    let solutions: Vec<&String> = docs
        .iter()
        .filter(|d| d.contains("\"format\": \"cyclecover-solution\""))
        .collect();
    assert_eq!(rejects.len(), 2);
    assert_eq!(solutions.len(), 2);
    assert!(
        rejects.iter().any(|d| d.contains("\"reason\": \"parse\"")),
        "the malformed line is refused with a parse reject: {rejects:?}"
    );
    let predicted = rejects
        .iter()
        .find(|d| d.contains("\"reason\": \"predicted_unmeetable\""))
        .expect("the hopeless deadline is refused at admission");
    assert!(predicted.contains("\"id\": \"doomed\""));
    assert!(
        predicted.contains("\"predicted_nodes\":"),
        "the refusal carries its evidence: {predicted}"
    );
    for id in ["\"id\": \"a\"", "\"id\": \"b\""] {
        assert!(
            solutions.iter().any(|d| d.contains(id)),
            "each admitted job is answered exactly once: {solutions:?}"
        );
    }
    assert!(
        solutions.iter().all(|d| d.contains("\"predicted_nodes\":")),
        "answers for exactly-calibrated shapes audit the prediction: {solutions:?}"
    );

    // --- Connection 2: warm generation, live stats, graceful drain.
    let (mut w2, mut r2) = connect(addr);
    writeln!(
        w2,
        r#"{{"format": "cyclecover-request", "version": 1, "id": "c", "n": 6}}"#
    )
    .expect("write warm job");
    let warm = read_line(&mut r2);
    assert!(warm.contains("\"format\": \"cyclecover-solution\""));
    assert!(warm.contains("\"id\": \"c\""));

    writeln!(
        w2,
        r#"{{"format": "cyclecover-control", "version": 1, "op": "stats"}}"#
    )
    .expect("write stats control");
    let live = read_line(&mut r2);
    let live_stats = DaemonStats::from_json(&live).expect("live stats parse");
    assert_eq!(live_stats.jobs_received, 3);
    assert_eq!(live_stats.rejected_parse, 1);
    assert_eq!(live_stats.rejected_predicted, 1);

    let final_doc = shut_down(&mut w2, &mut r2);
    let mut eof = String::new();
    assert_eq!(r2.read_line(&mut eof).expect("post-drain read"), 0);

    let stats = server.join().expect("daemon thread");
    assert_eq!(stats.connections_accepted, 2);
    assert_eq!(stats.jobs_received, 3, "a, b, and c were admitted");
    assert_eq!(stats.jobs_answered, 3);
    assert_eq!(stats.unstarted, 0, "nothing was abandoned by the drain");
    assert_eq!(stats.rejected_parse, 1);
    assert_eq!(stats.rejected_predicted, 1);
    assert!(
        stats.generations >= 2,
        "two separate micro-batch generations"
    );
    assert!(
        stats.warm_universe_hits >= 1,
        "connection 2 reused the universe built for connection 1: {stats:?}"
    );
    assert_eq!(final_doc.jobs_answered, stats.jobs_answered);
    assert_eq!(final_doc.rejected_predicted, stats.rejected_predicted);
}

#[test]
fn cert_cache_serves_repeats_and_persists_across_generations() {
    let save = std::env::temp_dir().join("cyclecover_daemon_cert_cache_test.json");
    let _ = std::fs::remove_file(&save);
    let mut daemon = Daemon::bind("127.0.0.1:0".parse().unwrap(), DaemonConfig::default())
        .expect("bind loopback");
    daemon.set_cert_cache(CertCache::new(), Some(save.clone()));
    let addr = daemon.local_addr().expect("local addr");
    let server = std::thread::spawn(move || daemon.run());

    let (mut w, mut r) = connect(addr);
    writeln!(
        w,
        r#"{{"format": "cyclecover-request", "version": 1, "id": "first", "n": 6}}"#
    )
    .expect("write cold job");
    // Waiting for the answer ends the dispatch generation, so the next
    // job arrives in a new one — against the now-warm certificate cache.
    let cold = read_line(&mut r);
    assert!(cold.contains("\"id\": \"first\""));
    assert!(
        cold.contains("\"cached\": false"),
        "cold answer ran the kernel: {cold}"
    );

    writeln!(
        w,
        r#"{{"format": "cyclecover-request", "version": 1, "id": "again", "n": 6}}"#
    )
    .expect("write warm job");
    let warm = read_line(&mut r);
    assert!(warm.contains("\"id\": \"again\""));
    assert!(
        warm.contains("\"cached\": true"),
        "the repeat must answer from the certificate cache: {warm}"
    );
    assert!(
        warm.contains("\"nodes\": 0"),
        "a cached answer burns zero kernel nodes: {warm}"
    );

    let final_stats = shut_down(&mut w, &mut r);
    assert_eq!(final_stats.cert_cache_hits, 1);
    assert_eq!(final_stats.cert_cache_entries, 1);

    let stats = server.join().expect("daemon thread");
    assert_eq!(stats.cert_cache_hits, 1);

    // The cache survived to disk and re-loads with the entry intact.
    let doc = std::fs::read_to_string(&save).expect("cache file written");
    let reloaded = CertCache::from_json(&doc).expect("persisted cache loads");
    assert_eq!(reloaded.len(), 1);
    assert_eq!(reloaded.rejected_on_load(), 0);
    let _ = std::fs::remove_file(&save);
}

#[test]
fn a_zero_queue_depth_still_answers_and_drains() {
    // Read as depth 1: a depth-0 outbox would pause the connection
    // before its first line, and the read timeout would fail the test.
    let (addr, server) = spawn(DaemonConfig {
        queue_depth: 0,
        ..DaemonConfig::default()
    });

    let (mut w, mut r) = connect(addr);
    writeln!(
        w,
        r#"{{"format": "cyclecover-request", "version": 1, "id": "z", "n": 6}}"#
    )
    .expect("write job");
    let answer = read_line(&mut r);
    assert!(
        answer.contains("\"format\": \"cyclecover-solution\"") && answer.contains("\"id\": \"z\""),
        "the job is answered: {answer}"
    );

    let final_doc = shut_down(&mut w, &mut r);
    assert_eq!(final_doc.jobs_answered, 1);
    let stats = server.join().expect("daemon thread");
    assert_eq!(stats.jobs_received, 1);
    assert_eq!(stats.jobs_answered, 1);
}

#[test]
fn a_zero_connection_limit_still_admits_the_shutdown_control() {
    // Read as a limit of 1: a limit of 0 would refuse every peer, the
    // shutdown control's too, and the daemon could only be killed. The
    // client's read timeout turns that refusal into a failure, not a
    // hang.
    let (addr, server) = spawn(DaemonConfig {
        max_conns: 0,
        ..DaemonConfig::default()
    });

    let (mut w, mut r) = connect(addr);
    let final_doc = shut_down(&mut w, &mut r);
    assert_eq!(final_doc.connections_accepted, 1);
    assert_eq!(final_doc.connections_refused, 0);
    let stats = server.join().expect("daemon thread");
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.connections_refused, 0);
}

#[test]
fn a_connection_past_the_limit_gets_one_overload_reject_then_eof() {
    let (addr, server) = spawn(DaemonConfig {
        max_conns: 1,
        ..DaemonConfig::default()
    });

    // The stats reply proves the first connection holds the only slot.
    let (mut w1, mut r1) = connect(addr);
    writeln!(
        w1,
        r#"{{"format": "cyclecover-control", "version": 1, "op": "stats"}}"#
    )
    .expect("write stats control");
    let live = DaemonStats::from_json(&read_line(&mut r1)).expect("live stats parse");
    assert_eq!(live.connections_accepted, 1);

    let (_w2, mut r2) = connect(addr);
    let refusal = read_line(&mut r2);
    assert!(
        refusal.contains("\"format\": \"cyclecover-reject\"")
            && refusal.contains("\"reason\": \"overload\"")
            && refusal.contains("\"detail\": \"connection limit 1 reached\""),
        "the second peer is refused on the wire: {refusal}"
    );
    let mut rest = String::new();
    assert_eq!(
        r2.read_line(&mut rest).expect("read after the reject"),
        0,
        "one reject, then the daemon closes: {rest:?}"
    );

    let final_doc = shut_down(&mut w1, &mut r1);
    assert_eq!(final_doc.connections_refused, 1);
    assert_eq!(final_doc.connections_accepted, 1);
    let stats = server.join().expect("daemon thread");
    assert_eq!(stats.connections_refused, 1);
    assert_eq!(stats.connections_accepted, 1);
}

#[test]
fn a_full_outbox_stalls_reading_and_every_line_is_answered() {
    let (addr, server) = spawn(DaemonConfig {
        queue_depth: 1,
        ..DaemonConfig::default()
    });

    // One chunk: the first reject fills the depth-1 outbox while the
    // rest of the chunk is still unread.
    let (mut w, mut r) = connect(addr);
    w.write_all(
        concat!(
            "{broken one\n",
            "{broken two\n",
            r#"{"format": "cyclecover-request", "version": 1, "id": "q", "n": 6}"#,
            "\n",
        )
        .as_bytes(),
    )
    .expect("write the chunk");
    let docs: Vec<String> = (0..3).map(|_| read_line(&mut r)).collect();
    assert_eq!(
        docs.iter()
            .filter(|d| d.contains("\"reason\": \"parse\""))
            .count(),
        2,
        "both malformed lines are refused: {docs:?}"
    );
    assert!(
        docs.iter()
            .any(|d| d.contains("\"format\": \"cyclecover-solution\"")
                && d.contains("\"id\": \"q\"")),
        "the request behind them is answered: {docs:?}"
    );

    let final_doc = shut_down(&mut w, &mut r);
    assert!(
        final_doc.stalls >= 1,
        "the depth-1 outbox paused reading: {final_doc:?}"
    );
    assert_eq!(final_doc.rejected_parse, 2);
    assert_eq!(final_doc.jobs_answered, 1);
    let stats = server.join().expect("daemon thread");
    assert_eq!(stats.stalls, final_doc.stalls);
}
