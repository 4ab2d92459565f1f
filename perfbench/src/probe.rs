//! Probes for what the in-process composition cannot reach: the network
//! round trip of a server, the router hop, and the segment store's read
//! and write paths.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use datastore::{store, Store};
use vdx_server::{Client, ServerHandle};

/// Repetitions per probed line.
const REPEATS: usize = 40;

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn request(client: &mut Client, line: &str) -> Result<(String, f64), String> {
    let started = Instant::now();
    let reply = client.request(line).map_err(|e| format!("{line}: {e}"))?;
    Ok((reply, micros(started)))
}

/// `Client::request` minus in-process `handle_line` for the same lines:
/// what the event loop, framing and socket add to a request. Each line is
/// sent once to both sides first, so both answer it from warm caches.
pub fn net_rtt_us(
    addr: SocketAddr,
    local: &ServerHandle,
    lines: &[String],
) -> Result<Vec<f64>, String> {
    let mut client = connect(addr)?;
    let mut diffs = Vec::new();
    for line in lines {
        request(&mut client, line)?;
        local.state().handle_line(line);
        for _ in 0..REPEATS {
            let (_, wire) = request(&mut client, line)?;
            let started = Instant::now();
            local.state().handle_line(line);
            diffs.push(wire - micros(started));
        }
    }
    Ok(diffs)
}

/// Microseconds for one request over a connection to `addr`.
pub fn wire(addr: SocketAddr) -> Result<impl FnMut(&str) -> Result<f64, String>, String> {
    let mut client = connect(addr)?;
    Ok(move |line: &str| Ok(request(&mut client, line)?.1))
}

/// Time through the router (`via`: over the wire, or an in-process
/// `RouterState::handle_line`) minus the owning backend's round trip for
/// forwarded lines (`owner(line)` names the backend), or minus the slowest
/// backend's for fanned-out lines (`owner` returns `None`). The lines were
/// all answered during the timed phase, so both paths find them cached; the
/// order of the two requests alternates to cancel warm-up effects.
pub fn hop_us(
    mut via: impl FnMut(&str) -> Result<f64, String>,
    backends: &[SocketAddr],
    lines: &[String],
    owner: impl Fn(&str) -> Option<usize>,
) -> Result<Vec<f64>, String> {
    let mut direct: Vec<Client> = backends
        .iter()
        .map(|&a| connect(a))
        .collect::<Result<_, _>>()?;
    let mut hops = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let through_direct = |direct: &mut Vec<Client>| -> Result<f64, String> {
            match owner(line) {
                Some(g) => Ok(request(&mut direct[g], line)?.1),
                None => {
                    let mut slowest = 0.0f64;
                    for client in direct.iter_mut() {
                        slowest = slowest.max(request(client, line)?.1);
                    }
                    Ok(slowest)
                }
            }
        };
        let (via_router, straight) = if i % 2 == 0 {
            let r = via(line)?;
            (r, through_direct(&mut direct)?)
        } else {
            let d = through_direct(&mut direct)?;
            (via(line)?, d)
        };
        hops.push(via_router - straight);
    }
    Ok(hops)
}

/// Segment files under `dir`, recursively, sorted by path.
pub fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "vdx") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// What the store probe measured.
#[derive(Debug, Default)]
pub struct StoreProbe {
    /// Microseconds to read one segment file.
    pub read_us: Vec<f64>,
    /// Microseconds to validate and decode one segment.
    pub decode_us: Vec<f64>,
    /// Microseconds for `Store::save` of one decoded segment.
    pub save_us: Vec<f64>,
    /// Bytes per segment.
    pub bytes: Vec<f64>,
    /// Bytes of every segment under the store.
    pub total_bytes: u64,
}

/// Read, decode and re-save up to `limit` segments of the store at
/// `store_dir` (the saves go to `sink_dir`).
pub fn store_probe(store_dir: &Path, sink_dir: &Path, limit: usize) -> Result<StoreProbe, String> {
    let files = segment_files(store_dir);
    let sink = Store::open(sink_dir).map_err(|e| format!("probe store: {e}"))?;
    let mut probe = StoreProbe::default();
    for path in &files {
        probe.total_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    }
    for path in files.iter().take(limit) {
        let started = Instant::now();
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        probe.read_us.push(micros(started));
        probe.bytes.push(bytes.len() as f64);
        let started = Instant::now();
        let dataset = store::decode_segment(&bytes).map_err(|e| format!("decode: {e}"))?;
        probe.decode_us.push(micros(started));
        let started = Instant::now();
        sink.save(&dataset).map_err(|e| format!("save: {e}"))?;
        probe.save_us.push(micros(started));
    }
    Ok(probe)
}
