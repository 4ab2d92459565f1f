//! The benchmark's span recorder and the traced composition of a request.
//!
//! [`Composed::dispatch`] answers a request line the way
//! `ServerState::handle_line` does, but by calling each layer's public
//! functions itself — `protocol::parse_request`, `QueryCache`,
//! `DatasetCache::get_or_load`, `PlanCache::get_or_compile`,
//! `compile::execute`, `Dataset::hist_engine`, `Tracker::track_with`,
//! `protocol::*_reply` — with a span around each call. The spans of one
//! request share its id and form the tree
//! `request → parse → query_cache → dataset_cache (→ load) → plan →
//! evaluate | hist | track → serialize`; a layer's self time is its span
//! minus its children. The composed reply must be byte-identical to the
//! server's, which is what makes the breakdown trustworthy.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use datastore::{Catalog, Dataset, DatasetCache};
use fastbit::{
    compile, parse_query, BinSpec, ExecStrategy, HistEngine, PlanCache, Program, QueryExpr,
};
use pipeline::{NodePool, Tracker};
use vdx_server::protocol::{self, Request};
use vdx_server::{QueryCache, ServerConfig};

/// One timed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Index of the enclosing span in the same tree.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Cache outcome, for the `query_cache`, `dataset_cache` and `plan` spans.
    pub hit: Option<bool>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one request.
#[derive(Debug, Clone, Default)]
pub struct Tree {
    /// Request id, shared by every span of the tree.
    pub id: u64,
    /// Spans in opening order; the first is the root.
    pub spans: Vec<Span>,
    /// Counts recorded at the same boundaries (e.g. `loads` in a track).
    pub counts: Vec<(&'static str, u64)>,
}

impl Tree {
    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// One JSON object describing the tree.
    pub fn to_json(&self, line: &str, extra: &str) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        let verb = line.split('\t').next().unwrap_or("");
        write!(out, "{{\"id\":{},\"verb\":\"{verb}\",\"spans\":[", self.id).expect("write");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let hit = s.hit.map_or("null".to_string(), |h| h.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.3},\"dur_us\":{:.3},\"self_us\":{:.3},\"hit\":{hit}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                own[i] as f64 / 1e3
            )
            .expect("write");
        }
        out.push_str("],\"counts\":{");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{k}\":{v}").expect("write");
        }
        write!(out, "}}{extra}}}").expect("write");
        out
    }
}

/// An in-memory span recorder. Disabled, every call is a no-op.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    current: Tree,
    stack: Vec<usize>,
    trees: Vec<Tree>,
}

/// The index [`Recorder::open`] returns when disabled.
const NO_SPAN: usize = usize::MAX;

impl Recorder {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            current: Tree::default(),
            stack: Vec::new(),
            trees: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.current.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            hit: None,
        });
        let index = self.current.spans.len() - 1;
        self.stack.push(index);
        index
    }

    /// Close the span `open` returned (spans close innermost first).
    pub fn close(&mut self, index: usize) {
        if index == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        self.current.spans[index].end_ns = end_ns;
        self.stack.pop();
    }

    /// Close a cache span, noting whether it hit.
    pub fn close_hit(&mut self, index: usize, hit: bool) {
        if index != NO_SPAN {
            self.current.spans[index].hit = Some(hit);
        }
        self.close(index);
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = self.open(name);
        let out = f();
        self.close(index);
        out
    }

    /// Record a count on the current request.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            self.current.counts.push((name, n));
        }
    }

    /// End the current request: its spans become a finished tree.
    pub fn finish_request(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.trees.len() as u64 + 1;
        let mut tree = std::mem::take(&mut self.current);
        tree.id = id;
        self.trees.push(tree);
        self.stack.clear();
    }

    /// Every finished tree, in order.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }
}

/// A request answered layer by layer, on caches of the server's
/// configuration.
#[derive(Debug)]
pub struct Composed {
    catalog: Arc<Catalog>,
    datasets: DatasetCache,
    queries: QueryCache,
    plans: PlanCache,
    nodes: usize,
}

/// The plan-cache capacity `DataExplorer` uses.
const PLAN_CACHE_CAPACITY: usize = 64;

type Reply = Result<String, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

impl Composed {
    /// Caches configured as `config` configures the server's.
    pub fn new(catalog: Arc<Catalog>, config: &ServerConfig) -> Composed {
        Composed {
            catalog,
            datasets: DatasetCache::new(config.dataset_cache.clone()),
            queries: QueryCache::new(config.query_cache_entries),
            plans: PlanCache::new(PLAN_CACHE_CAPACITY),
            nodes: config.nodes,
        }
    }

    /// Load every step in order through the dataset cache, as `WARM` does.
    pub fn warm(&self) -> Result<(), String> {
        for step in self.catalog.steps() {
            self.datasets
                .get_or_load(&self.catalog, step)
                .map_err(text)?;
        }
        Ok(())
    }

    /// Answer `line`, recording one span tree in `rec`.
    pub fn dispatch(&self, rec: &mut Recorder, line: &str) -> String {
        let root = rec.open("request");
        let reply = self
            .route(rec, line)
            .unwrap_or_else(|e| protocol::err_reply(&e));
        rec.close(root);
        rec.finish_request();
        reply
    }

    fn route(&self, rec: &mut Recorder, line: &str) -> Reply {
        match rec.span("parse", || protocol::parse_request(line))? {
            Request::Ping => Ok("OK\tPONG".to_string()),
            Request::Info => Ok(protocol::info_reply(&self.catalog.steps())),
            Request::Select { step, query } => self.select(rec, step, &query),
            Request::Refine { step, ids, query } => self.refine(rec, step, &ids, &query),
            Request::Hist {
                step,
                column,
                bins,
                condition,
            } => self.hist(rec, step, &column, bins, condition.as_deref()),
            Request::Track { ids } => self.track(rec, &ids),
            other => Err(format!("{} is not composed", other.verb())),
        }
    }

    fn cached(&self, rec: &mut Recorder, key: &str) -> Option<Arc<str>> {
        let span = rec.open("query_cache");
        let hit = self.queries.get(key);
        rec.close_hit(span, hit.is_some());
        hit
    }

    fn dataset(&self, rec: &mut Recorder, step: usize) -> Result<Arc<Dataset>, String> {
        let span = rec.open("dataset_cache");
        let resident = self.datasets.contains(step);
        let dataset = if resident {
            self.datasets.get_or_load(&self.catalog, step)
        } else {
            rec.span("load", || self.datasets.get_or_load(&self.catalog, step))
        };
        rec.close_hit(span, resident);
        dataset.map_err(text)
    }

    fn plan(&self, rec: &mut Recorder, expr: &QueryExpr) -> Arc<Program> {
        let span = rec.open("plan");
        let misses = self.plans.stats().misses;
        let program = self.plans.get_or_compile(expr);
        rec.close_hit(span, self.plans.stats().misses == misses);
        program
    }

    fn serialize(rec: &mut Recorder, f: impl FnOnce() -> String) -> String {
        rec.span("serialize", f)
    }

    fn select(&self, rec: &mut Recorder, step: usize, query: &str) -> Reply {
        let expr = rec.span("parse", || parse_query(query)).map_err(text)?;
        let key = format!("select:{step}:{}", expr.cache_key());
        if let Some(reply) = self.cached(rec, &key) {
            return Ok(reply.to_string());
        }
        let dataset = self.dataset(rec, step)?;
        let program = self.plan(rec, &expr);
        let ids = rec.span("evaluate", || {
            compile::execute(&program, &*dataset, ExecStrategy::Auto)
                .map_err(text)
                .and_then(|s| dataset.ids_of(&s).map_err(text))
        })?;
        let reply = Self::serialize(rec, || protocol::ids_reply("SELECT", &ids));
        self.queries.insert(key, &reply);
        Ok(reply)
    }

    fn refine(&self, rec: &mut Recorder, step: usize, ids: &[u64], query: &str) -> Reply {
        let expr = rec.span("parse", || parse_query(query)).map_err(text)?;
        let dataset = self.dataset(rec, step)?;
        let by_id = rec
            .span("select_ids", || dataset.select_ids(ids))
            .map_err(text)?;
        let program = self.plan(rec, &expr);
        let refined = rec.span("evaluate", || {
            compile::execute(&program, &*dataset, ExecStrategy::Auto)
                .and_then(|by_query| by_id.and(&by_query))
                .map_err(text)
                .and_then(|s| dataset.ids_of(&s).map_err(text))
        })?;
        Ok(Self::serialize(rec, || {
            protocol::ids_reply("REFINE", &refined)
        }))
    }

    fn hist(
        &self,
        rec: &mut Recorder,
        step: usize,
        column: &str,
        bins: usize,
        condition: Option<&str>,
    ) -> Reply {
        let condition = rec
            .span("parse", || condition.map(parse_query).transpose())
            .map_err(text)?;
        let cond_key = condition
            .as_ref()
            .map_or_else(|| "*".to_string(), QueryExpr::cache_key);
        let key = format!("hist:{step}:{column}:{bins}:{cond_key}");
        if let Some(reply) = self.cached(rec, &key) {
            return Ok(reply.to_string());
        }
        let dataset = self.dataset(rec, step)?;
        let hist = rec
            .span("hist", || {
                dataset.hist_engine().hist1d(
                    column,
                    &BinSpec::Uniform(bins),
                    condition.as_ref(),
                    HistEngine::FastBit,
                )
            })
            .map_err(text)?;
        let reply = Self::serialize(rec, || protocol::hist_reply(&hist));
        self.queries.insert(key, &reply);
        Ok(reply)
    }

    fn track(&self, rec: &mut Recorder, ids: &[u64]) -> Reply {
        let key = format!(
            "track:{}",
            ids.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
        );
        if let Some(reply) = self.cached(rec, &key) {
            return Ok(reply.to_string());
        }
        let steps = self.catalog.steps();
        let misses = self.datasets.stats().misses;
        let tracking = rec
            .span("track", || {
                Tracker::new(HistEngine::FastBit).track_with(
                    &steps,
                    |step| Ok(self.datasets.get_or_load(&self.catalog, step)?),
                    ids,
                    &NodePool::new(self.nodes),
                )
            })
            .map_err(text)?;
        rec.count("loads", self.datasets.stats().misses - misses);
        let reply = Self::serialize(rec, || protocol::track_reply(&tracking));
        self.queries.insert(key, &reply);
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            parent,
            start_ns,
            end_ns,
            hit: None,
        };
        let tree = Tree {
            id: 1,
            spans: vec![
                span("request", None, 0, 100),
                span("parse", Some(0), 5, 15),
                span("dataset_cache", Some(0), 20, 80),
                span("load", Some(2), 25, 75),
            ],
            counts: vec![],
        };
        assert_eq!(tree.self_ns(), vec![30, 10, 10, 50]);
        assert_eq!(tree.self_ns().iter().sum::<u64>(), tree.spans[0].dur_ns());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.open("request");
        rec.close(s);
        rec.finish_request();
        assert!(rec.trees().is_empty());
    }
}
