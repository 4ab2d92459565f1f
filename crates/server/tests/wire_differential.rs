//! The byte-identity pin between the wire and the dispatcher: request bytes
//! sent over TCP must come back exactly as in-process
//! `ServerState::handle_line` answers the lossily decoded line — including
//! hostile input and invalid UTF-8 — and whole raw conversations must match
//! a reference model of the framing rules in `docs/PROTOCOL.md` (empty
//! lines, CRLF, an EOF mid-line, and pipelined requests behind a `QUIT`).
//! This suite is what keeps the connection layer from quietly forking the
//! semantics of the dispatcher it serves.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use vdx_server::testkit::{self, TestServer};
use vdx_server::{ConnConfig, ServerConfig, ServerState};

fn spawn_server(tag: &str) -> TestServer {
    let config = ServerConfig {
        conn: ConnConfig {
            workers: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    testkit::spawn_tiny_server(tag, 300, 3, 8, config)
}

fn connect_raw(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

/// Write raw bytes, half-close the write side, and read everything the
/// server says until it closes — the whole conversation as one byte blob.
fn converse(addr: SocketAddr, request_bytes: &[u8]) -> Vec<u8> {
    let mut stream = connect_raw(addr);
    stream.write_all(request_bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    reply
}

/// The framing rules of `docs/PROTOCOL.md` as a reference model over
/// in-process dispatch: split on `\n` and strip one trailing `\r`, skip
/// empty lines, serve an unterminated final line, and stop after a reply
/// whose close flag is set.
fn reference_transcript(state: &ServerState, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for raw in bytes.split(|&b| b == b'\n') {
        let line = raw.strip_suffix(b"\r").unwrap_or(raw);
        if line.is_empty() {
            continue;
        }
        let (reply, close) = state.handle_line(&String::from_utf8_lossy(line));
        out.extend_from_slice(reply.as_bytes());
        out.push(b'\n');
        if close {
            break;
        }
    }
    out
}

/// The deterministic request catalog: every reply here depends only on the
/// request and the catalog, never on timing or prior traffic (so `STATS`,
/// `METRICS`, `TRACE` and cache-order-sensitive forms are exercised
/// elsewhere; this suite is about reply *bytes*).
fn deterministic_lines() -> Vec<Vec<u8>> {
    let mut lines: Vec<Vec<u8>> = [
        "PING",
        "INFO",
        "SELECT\t0\tpx > 0",
        "SELECT\t1\tpx > 0 && y > 0",
        "SELECT\t2\tpx > 1e30", // empty result
        "SELECT\t99\tpx > 0",   // ERR: no such step
        "HIST\t0\tpx\t8",
        "HIST\t1\ty\t4\tpx > 0",
        "HIST\t0\tnope\t8", // ERR: no such column
        "REFINE\t0\t1,2,3\tpx > 0",
        "TRACK\t1,2",
        "SELECT",                 // ERR: missing args
        "SELECT\tzero\tpx > 0",   // ERR: bad step
        "HIST\t0\tpx\tmany",      // ERR: bad bins
        "NOSUCHVERB\targ",        // ERR: unknown verb
        "select\t0\tpx > 0",      // ERR: verbs are case-sensitive
        "SELECT\t0\tpx >",        // ERR: truncated expression
        "SELECT\t0\t(px > 0",     // ERR: unbalanced paren
        "SELECT\t0\tpx <>\t0",    // ERR: stray tab in expression
        "TRACK\tnot,numbers",     // ERR: bad id list
        "\tleading\ttab",         // ERR: empty verb
        "PING\textra\targuments", // PING ignores or rejects — either way, pinned
    ]
    .into_iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    // Invalid UTF-8 inside an expression: the wire decodes lossily, so the
    // parse error must match the one for the decoded line.
    lines.push(b"SELECT\t0\tpx > \xff\xfe".to_vec());
    // Invalid UTF-8 inside the verb itself.
    lines.push(b"PI\xf0NG".to_vec());
    // Control bytes: a NUL inside an expression and a terminal escape.
    lines.push(b"SELECT\t0\tpx > 0\0".to_vec());
    lines.push(b"\x1b[2J\x7f".to_vec());
    lines
}

/// Line-by-line request/reply lockstep on one long-lived connection: each
/// reply over TCP is byte-identical to the in-process reply.
#[test]
fn deterministic_lines_reply_as_handle_line_does() {
    let server = spawn_server("wire_lockstep");
    let stream = connect_raw(server.addr());
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for line in deterministic_lines() {
        writer.write_all(&line).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let (want, close) = server.state().handle_line(&String::from_utf8_lossy(&line));
        assert!(!close, "{line:?} closes the connection");
        assert_eq!(
            reply,
            format!("{want}\n"),
            "wire diverged from handle_line on request {:?}",
            String::from_utf8_lossy(&line)
        );
    }
    server.shutdown_and_clean();
}

/// Whole-conversation transcripts: tricky framings sent as raw bursts with
/// a half-close, compared as the full byte blob against the reference
/// model of the framing rules.
#[test]
fn conversation_transcripts_match_the_framing_rules() {
    let server = spawn_server("wire_transcript");
    let conversations: Vec<&[u8]> = vec![
        // Empty lines produce no reply.
        b"\n\nPING\n\n\nINFO\n",
        // EOF mid-line: the unterminated final request is still served.
        b"PING\nSELECT\t0\tpx > 0",
        // EOF mid-line on an ERR request.
        b"NOSUCHVERB",
        // QUIT discards everything pipelined behind it.
        b"PING\nQUIT\nSELECT\t0\tpx > 0\nPING\n",
        // CRLF line endings are accepted and stripped; a bare CRLF is an
        // empty line.
        b"PING\r\n\r\nINFO\r\n",
        // A lone newline conversation: no replies at all, clean close.
        b"\n",
        // Pipelined burst of mixed OK/ERR requests, invalid UTF-8 included.
        b"SELECT\t0\tpx > 0\nSELECT\t99\tpx > 0\nPI\xf0NG\nHIST\t0\tpx\t8\nPING\n",
    ];
    for bytes in conversations {
        let got = converse(server.addr(), bytes);
        let want = reference_transcript(server.state(), bytes);
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want),
            "transcript diverged for conversation {:?}",
            String::from_utf8_lossy(bytes)
        );
    }
    server.shutdown_and_clean();
}
