//! The correctness oracle: every reply of a run is checked against the
//! reply direct `DataExplorer` calls produce over the same catalog, and —
//! when a single-server reference is given, as for `cluster` — against
//! that server's `handle_line` reply to the same request, byte for byte.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use datastore::{DatasetCache, DatasetCacheConfig};
use fastbit::parse_query;
use vdx_core::{DataExplorer, ExplorerConfig};
use vdx_server::protocol::{self, Request};
use vdx_server::ServerHandle;

use crate::drive::{fnv1a, Record};
use crate::workload::Op;

/// A reply that did not match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The request line (truncated for display).
    pub line: String,
    /// What differed.
    pub why: String,
}

/// Threads deriving expected replies (the load generator's count; the
/// oracle runs after the timed phase, with the host stopped).
const ORACLE_THREADS: usize = 2;

fn op_index(line: &str) -> usize {
    let op = Op::of_line(line);
    Op::ALL.iter().position(|&o| o == op).expect("listed op")
}

/// Expected reply hashes of one request line.
#[derive(Debug, Clone, Copy)]
struct Expected {
    explorer: (u64, usize),
    single: Option<(u64, usize)>,
}

/// Re-derives replies from direct library calls, memoized per line.
#[derive(Debug)]
pub struct Oracle {
    explorer: DataExplorer,
    cache: Arc<DatasetCache>,
    single: Option<ServerHandle>,
    memo: HashMap<String, Expected>,
    /// Microseconds per direct `DataExplorer` call, per op.
    pub timings: [Vec<f64>; 4],
}

impl Oracle {
    /// An oracle over the catalog in `dir`, read through its raw files (not
    /// the segment store the server wrote) with every step kept resident.
    pub fn new(dir: &Path, single: Option<ServerHandle>) -> Result<Oracle, String> {
        let explorer = DataExplorer::open(
            dir,
            ExplorerConfig {
                nodes: 2,
                ..ExplorerConfig::default()
            },
        )
        .map_err(|e| format!("oracle open: {e}"))?;
        let cache = Arc::new(DatasetCache::new(DatasetCacheConfig {
            max_bytes: usize::MAX / 2,
            shards: 1,
        }));
        Ok(Oracle {
            explorer: explorer.with_dataset_cache(Arc::clone(&cache)),
            cache,
            single,
            memo: HashMap::new(),
            timings: Default::default(),
        })
    }

    /// The reply a correct server gives to `line`, from direct explorer
    /// calls.
    pub fn expected(&mut self, line: &str) -> String {
        let (reply, us) = self.derive(line);
        self.timings[op_index(line)].push(us);
        reply
    }

    /// The explorer's reply to `line` and the microseconds it took.
    fn derive(&self, line: &str) -> (String, f64) {
        let request = match protocol::parse_request(line) {
            Ok(r) => r,
            Err(e) => return (protocol::err_reply(&e), 0.0),
        };
        let started = Instant::now();
        let reply = match request {
            Request::Ping => Ok("OK\tPONG".to_string()),
            Request::Info => Ok(protocol::info_reply(&self.explorer.steps())),
            Request::Select { step, query } => self
                .explorer
                .select(step, &query)
                .map(|b| protocol::ids_reply("SELECT", &b.ids))
                .map_err(|e| e.to_string()),
            Request::Refine { step, ids, query } => parse_query(&query)
                .map_err(|e| e.to_string())
                .and_then(|expr| {
                    self.explorer
                        .refine_ids(step, &ids, &expr)
                        .map_err(|e| e.to_string())
                })
                .map(|ids| protocol::ids_reply("REFINE", &ids)),
            Request::Hist {
                step,
                column,
                bins,
                condition,
            } => self
                .explorer
                .histogram1d(step, &column, bins, condition.as_deref())
                .map(|h| protocol::hist_reply(&h))
                .map_err(|e| e.to_string()),
            Request::Track { ids } => self
                .explorer
                .track(&ids)
                .map(|t| protocol::track_reply(&t))
                .map_err(|e| e.to_string()),
            other => Err(format!("{} is outside the benchmark", other.verb())),
        };
        let us = started.elapsed().as_secs_f64() * 1e6;
        (reply.unwrap_or_else(|e| protocol::err_reply(&e)), us)
    }

    /// Expected hashes of `line` and the explorer's time for it.
    fn expect(&self, line: &str) -> (Expected, f64) {
        let (reply, us) = self.derive(line);
        let single = self.single.as_ref().map(|s| {
            let (reply, _) = s.state().handle_line(line);
            (fnv1a(reply.as_bytes()), reply.len())
        });
        let e = Expected {
            explorer: (fnv1a(reply.as_bytes()), reply.len()),
            single,
        };
        (e, us)
    }

    /// Derive the expectations of every line not seen yet, on
    /// [`ORACLE_THREADS`] threads.
    fn expect_all<'a>(&mut self, lines: impl Iterator<Item = &'a str>) {
        let mut todo: Vec<&str> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for line in lines {
            if !self.memo.contains_key(line) && seen.insert(line) {
                todo.push(line);
            }
        }
        let this = &*self;
        let derived: Vec<(&str, Expected, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ORACLE_THREADS)
                .map(|t| {
                    let todo = &todo;
                    scope.spawn(move || {
                        todo.iter()
                            .skip(t)
                            .step_by(ORACLE_THREADS)
                            .map(|line| {
                                let (e, us) = this.expect(line);
                                (*line, e, us)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        for (line, e, us) in derived {
            self.timings[op_index(line)].push(us);
            self.memo.insert(line.to_string(), e);
        }
    }

    /// Check every record. Returns the index of each wrong reply in
    /// `records` with what was wrong.
    pub fn check<'a>(
        &mut self,
        records: impl Iterator<Item = &'a Record>,
    ) -> Vec<(usize, Mismatch)> {
        let records: Vec<&Record> = records.collect();
        self.expect_all(records.iter().map(|r| r.line.as_str()));
        let mut out = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let e = self.memo[&r.line];
            let got = (r.hash, r.len);
            let why = if got != e.explorer {
                Some("reply differs from direct DataExplorer calls")
            } else if e.single.is_some_and(|s| s != got) {
                Some("reply differs from the single-server reply")
            } else {
                None
            };
            if let Some(why) = why {
                out.push((
                    i,
                    Mismatch {
                        line: r.line.chars().take(120).collect(),
                        why: why.to_string(),
                    },
                ));
            }
        }
        out
    }

    /// Resident bytes of the whole catalog, every step loaded.
    pub fn resident_bytes(&self) -> Result<u64, String> {
        for step in self.explorer.steps() {
            self.cache
                .get_or_load(self.explorer.catalog(), step)
                .map_err(|e| e.to_string())?;
        }
        Ok(self.cache.stats().resident_bytes)
    }
}
